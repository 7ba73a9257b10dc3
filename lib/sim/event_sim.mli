(** Event-driven timing simulation under the transport-delay model.

    The paper's power model is zero-delay: it counts at most one transition
    per net per vector and "ignores signal transitions due to glitches"
    (Sec. 4.1).  This simulator propagates input changes through the real
    pin-to-pin delays and counts {e every} output change, making the
    glitch power visible.  The netlist must be combinational (always true
    here) so activity quiesces after each vector.

    Cells are evaluated by {!Bitsim.eval_cell}, the library's one cell
    evaluator, on words that hold one value in every lane; the test
    suite's [simulator_reference.ml] is the reference it is diffed
    against. *)

open Dp_netlist

type t = {
  netlist : Netlist.t;
  fanout : int list array;  (** net -> fed cells *)
  values : int64 array;
      (** current settled value per net, as a {!Bitsim} word: [0L] or
          [-1L] *)
  transitions : int array;  (** cumulative transition count per net *)
}

val create : Netlist.t -> t

(** Establish a consistent initial state (not counted as activity). *)
val initialize : t -> assign:(string -> int) -> unit

(** Switch the inputs to a new vector at t = 0 and settle, counting every
    net transition along the way. *)
val apply_vector : t -> assign:(string -> int) -> unit

type rates = {
  vectors : int;
  transition_rate : float array;  (** per net: transitions / vector *)
}

(** Simulate random vectors drawn from the inputs' annotated probabilities.
    @raise Invalid_argument when [vectors < 2]. *)
val transition_rates : ?seed:int -> vectors:int -> Netlist.t -> rates

(** Ratio of timed (glitchy) to zero-delay switching energy, each
    weighted by {!Monte_carlo.switching_energy}; 1.0 means glitch-free. *)
val glitch_factor : Netlist.t -> vectors:int -> seed:int -> float
