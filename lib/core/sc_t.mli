(** Algorithm SC_T — FA allocation for a single column, for timing (paper
    Sec. 3.3).  A Huffman-like greedy: the three earliest-arriving addends
    (including sums produced earlier in the same column — the
    column-interaction of Fig. 2(c)) feed each new FA; when exactly three
    remain, an HA on the two earliest leaves the column with two.

    Lemma 1's delay-relevant dominances and the end-to-end near-optimality
    of the resulting FA_AOT are checked against exhaustive search in the
    test suite.

    The HA-on-exactly-three convention (the paper's footnote 1) locally
    dominates the alternative of spending an FA on all three (the Fig. 1
    convention); [Fa_finish] exists to measure that design choice. *)

open Dp_netlist

type tie_break =
  | Arrival_only
  | Prefer_high_q
      (** The paper's combined rule: break arrival ties toward large |q| to
          also help power. *)

type three_policy =
  | Ha_finish  (** the paper's rule: HA on the two earliest, keep two *)
  | Fa_finish  (** one FA on all three, keep only its sum *)

(** The SC_T total order (arrival, then optionally |q|, then net id). *)
val compare_nets : Netlist.t -> tie_break -> Netlist.net -> Netlist.net -> int

(** The {!Net_queue} keys whose order equals [compare_nets] — shared with
    the counter-aware {!Gpc} strategies. *)
val queue_keys : tie_break -> Net_queue.key * Net_queue.key

(** The SC_T loop on a pool already built: an FA on the three minima
    while more than three remain, then the [three_policy] finish
    (default [Ha_finish]).  [carries] are the column's carries so far,
    latest first; the returned carries follow them, in allocation order.
    The minima are taken under the pool's own keys: the counter-aware
    {!Gpc} strategies fill with it under both SC_T's and SC_LP's. *)
val reduce_pool :
  ?three_policy:three_policy -> Netlist.t -> Net_queue.t -> Netlist.net list ->
  Netlist.net list * Netlist.net list

(** Queue-based selection (one O(n log n) sort per column, then O(1) per
    step): {!reduce_pool} on a {!Net_queue} ordered by arrival, then
    descending |q| (under [Prefer_high_q]), then net id. *)
val reduce_column :
  ?tie_break:tie_break -> ?three_policy:three_policy ->
  Netlist.t -> Netlist.net list ->
  Netlist.net list * Netlist.net list
