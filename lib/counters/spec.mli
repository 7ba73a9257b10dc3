(** Arithmetic specification of the generalized parallel counters.

    Each counter sums same-weight input bits; its three output ports carry
    the result at weights [port_weight] above the input weight, and for
    every assignment the port values weighted by [2^weight] sum to the
    input population count.  [C53]/[C63]/[C73] output the binary digits of
    the popcount; [C42] (pins 0-3 = addends, pin 4 = carry-in) outputs
    sum / carry / chain carry-out with the carry-out the majority of pins
    0-2 — independent of the carry-in, so rows chain ripple-free. *)

(** The counter kinds, in certification order. *)
val kinds : Dp_tech.Cell_kind.t list

val arity : Dp_tech.Cell_kind.t -> int

(** Weight of output [port] relative to the input weight: [port] itself
    for the m:3 counters; 0/1/1 for [C42]. *)
val port_weight : Dp_tech.Cell_kind.t -> port:int -> int

val popcount : int -> int

(** [port_value kind ~port v] — value of [port] on the pin assignment
    bitmask [v]. *)
val port_value : Dp_tech.Cell_kind.t -> port:int -> int -> bool

(** [sum over ports of value * 2^weight] — equals [popcount v] for every
    counter kind and assignment (the defining invariant). *)
val weighted_value : Dp_tech.Cell_kind.t -> int -> int
