(** Algorithm SC_LP — FA allocation for a single column, for low power
    (paper Sec. 4.3).  Each FA consumes the three addends with the largest
    |q| = |p − 0.5| (Observation 2: this maximizes the produced signals'
    (q)², i.e. minimizes their switching activity p(1−p)).  An odd column
    gains a pseudo-addend of constant 0, modelling the HA; since
    |q(0)| = 0.5 is maximal, the HA pairs the two strongest real addends in
    the first iteration, exactly as the paper prescribes.

    Properties 1 and 2 (optimality under restricted conditions) are checked
    against exhaustive search in the test suite. *)

open Dp_netlist

type tie_break =
  | Q_only
  | Prefer_early  (** break |q| ties toward early arrival, helping timing *)

(** The SC_LP total order (|q| descending, then optionally arrival, then
    net id). *)
val compare_nets : Netlist.t -> tie_break -> Netlist.net -> Netlist.net -> int

(** The {!Net_queue} keys whose order equals [compare_nets] — shared with
    the counter-aware {!Gpc} strategies. *)
val queue_keys : tie_break -> Net_queue.key * Net_queue.key

(** Queue-based selection (one O(n log n) sort per column, then O(1) per
    step): the three largest-|q| addends feed each FA, popped from a
    {!Net_queue}. *)
val reduce_column :
  ?tie_break:tie_break -> Netlist.t -> Netlist.net list ->
  Netlist.net list * Netlist.net list
