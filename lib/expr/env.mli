(** Input-signal environment: per variable, a bit-width plus per-bit arrival
    times (for timing-driven allocation) and per-bit 1-probabilities (for
    power-driven allocation).  Variables are unsigned bit vectors by
    default; a [signed] variable is interpreted in two's complement (its
    MSB carries weight −2^(w−1)), which the bit-level lowering turns into
    Baugh-Wooley-style signed partial products. *)

type var_info = {
  width : int;
  signed : bool;
  arrival : float array;  (** length [width], index = bit position *)
  prob : float array;  (** length [width], each within [0, 1] *)
}

type t

val empty : t

(** [add name ~width env] binds [name]; omitted arrivals default to 0.0 and
    omitted probabilities to 0.5.  @raise Invalid_argument on mismatched
    array lengths, non-positive width, probabilities that are NaN or
    outside [0, 1], or arrivals that are negative or not finite. *)
val add :
  ?arrival:float array -> ?prob:float array -> ?signed:bool ->
  string -> width:int -> t -> t

(** Like {!add} with the same arrival/probability on every bit. *)
val add_uniform :
  ?arrival:float -> ?prob:float -> ?signed:bool -> string -> width:int -> t -> t

(** @raise Invalid_argument if unbound. *)
val find : string -> t -> var_info

val find_opt : string -> t -> var_info option
val mem : string -> t -> bool
val width : string -> t -> int
val is_signed : string -> t -> bool
val arrival : string -> bit:int -> t -> float
val prob : string -> bit:int -> t -> float
val bindings : t -> (string * var_info) list
val names : t -> string list

(** Bind every listed name with default arrivals/probabilities. *)
val of_widths : (string * int) list -> t

(** @raise Invalid_argument if some variable of the expression is unbound. *)
val check_covers : Ast.t -> t -> unit

(** Like {!add}, but validation failures become typed diagnostics:
    [DP-ENV001] for a non-positive width, [DP-ENV002] for bad
    arrival/probability attributes. *)
val add_res :
  ?arrival:float array -> ?prob:float array -> ?signed:bool ->
  string -> width:int -> t -> (t, Dp_diag.Diag.t) result

(** Like {!check_covers}, but reports {e all} unbound variables in one
    [DP-ENV003] diagnostic (one [("unbound", var)] context entry each). *)
val check_covers_res : Ast.t -> t -> (unit, Dp_diag.Diag.t) result

val pp : t Fmt.t
