(** Minimal growable array (OCaml 5.1 has no [Dynarray]); the reference
    netlist builder's store. *)

type 'a t

(** [dummy] fills unused capacity and is never observable. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int

(** Append and return the element's index. *)
val push : 'a t -> 'a -> int

(** @raise Invalid_argument out of bounds. *)
val get : 'a t -> int -> 'a

(** @raise Invalid_argument out of bounds. *)
val set : 'a t -> int -> 'a -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
