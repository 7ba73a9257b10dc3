(** Evaluation of the counter bodies of {!Dp_tech.Recipe} on one pin
    assignment. *)

(** [port_value r ~port v] evaluates the recipe's gate network on the pin
    assignment bitmask [v] — the quantity [Certify] compares exhaustively
    against {!Spec.port_value}.
    @raise Invalid_argument unless [port] is 0, 1 or 2. *)
val port_value : Dp_tech.Recipe.t -> port:int -> int -> bool

(** Output ports weighted by [2^weight]; equals [Spec.popcount v] for a
    correct recipe. *)
val weighted_value : Dp_tech.Recipe.t -> int -> int
