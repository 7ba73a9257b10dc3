(** Normalization of expressions to sum-of-products form: a finite map from
    monomials to non-zero integer coefficients.

    This is the word-level half of the paper's "global" translation of an
    arithmetic circuit into one addition expression (Sec. 1): products are
    distributed over sums so the whole expression becomes a single
    multi-operand addition, which the bit-level lowering then turns into one
    addend matrix. *)

module Mono : sig
  (** Sorted variable factors with multiplicity; [[]] is the constant
      monomial. *)
  type t = string list

  val compare : t -> t -> int
  val one : t
  val var : string -> t
  val mul : t -> t -> t
  val degree : t -> int
  val pp : t Fmt.t
end

type t

val zero : t

(** Add [coeff * mono]; cancellation removes zero terms. *)
val add_term : Mono.t -> int -> t -> t

val merge : t -> t -> t
val scale : int -> t -> t

(** [checkpoint] is called once per term product, so a caller can bound
    an expansion that grows out of hand (by raising from it). *)
val mul : ?checkpoint:(unit -> unit) -> t -> t -> t

val pow : ?checkpoint:(unit -> unit) -> t -> int -> t

(** Full normalization.  Distribution can grow the term count
    exponentially in nesting depth; all the paper's designs are small.
    [checkpoint] is passed to every {!mul} and {!pow}. *)
val of_expr : ?checkpoint:(unit -> unit) -> Ast.t -> t

(** Terms in increasing monomial order; coefficients are never 0. *)
val terms : t -> (Mono.t * int) list

val constant : t -> int
val term_count : t -> int
val max_degree : t -> int
val eval : (string -> int) -> t -> int

(** A syntactically reasonable expression denoting the same polynomial. *)
val to_expr : t -> Ast.t

val pp : t Fmt.t
