(** Interval analysis of expression values, used to infer the natural output
    width of a datapath (the smallest W such that the result is represented
    exactly — in two's complement when the value can go negative).

    Bounds saturate rather than wrap: [hi = max_int] means the value has
    no upper bound and [lo = min_int] no lower bound, and the operations
    keep it so.  The true value of any assignment lies inside the range
    however wide the operands. *)

type t = private { lo : int; hi : int }

(** @raise Invalid_argument if [lo > hi]. *)
val make : int -> int -> t

(** Range of an unsigned input of the given width: [0, 2^w − 1]. *)
val of_width : int -> t

(** Range of a two's-complement input: [−2^(w−1), 2^(w−1) − 1]. *)
val of_signed_width : int -> t

val const : int -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val pow : t -> int -> t
val of_expr : Env.t -> Ast.t -> t

(** Minimum representation width of the range: plain binary when
    non-negative, two's complement otherwise.  Between 1 and 63. *)
val width : t -> int

(** [width (of_expr env e)], capped at 62: the widest output the flow
    evaluates ({!Eval.mask}).  A range that needs more bits is computed
    modulo 2^62. *)
val natural_width : Env.t -> Ast.t -> int

val pp : t Fmt.t
