(** Generalized parallel-counter (GPC) allocation strategies.

    Extends the paper's greedy FA/HA column discipline to the certified
    counter cells of {!Dp_counters}: the sweep-style strategies split
    columns with 7:3/6:3/5:3 counters under the SC_T (earliest-arrival)
    or SC_LP (largest-|q|) orders, and a Dadda-style staged tree halves
    the matrix height with 4:2 compressors.  They run the shared drivers:
    {!Reduce.sweep_counters}, {!Sc_t.reduce_pool} and {!Dadda.staged}.
    Every [allocate_*] entry first runs {!Dp_counters.Certify.ensure} for
    the netlist's technology, so counter bodies are exhaustively proven
    before any instance is built. *)

open Dp_netlist
open Dp_bitmatrix

(** Split-and-fill under the SC_T order: counters (7:3, then 6:3, then
    5:3) pack the column's near-simultaneous cohort — addends within one
    FA sum delay of the earliest, i.e. the native bulk, never the late
    carries from already-reduced columns — earliest arrivals on the slow
    low pins; the leftovers and counter sums then go through SC_T's
    FA/HA loop (FA while four or more remain, HA at three), leaving at
    most two.  Returns [(kept, weight-(j+1) carries, weight-(j+2)
    carries)]. *)
val reduce_column_t :
  Netlist.t ->
  Netlist.net list ->
  Netlist.net list * Netlist.net list * Netlist.net list

(** The same split-and-fill rule under the SC_LP order (largest |q|
    absorbed first), with an unrestricted cohort: the power objective
    packs as many addends into counters as possible. *)
val reduce_column_lp :
  Netlist.t ->
  Netlist.net list ->
  Netlist.net list * Netlist.net list * Netlist.net list

(** Timing-driven counter allocation over the whole matrix. *)
val allocate_t : Netlist.t -> Matrix.t -> unit

(** Power-driven counter allocation over the whole matrix. *)
val allocate_lp : Netlist.t -> Matrix.t -> unit

(** Dadda-style staged 4:2 tree: {!Dadda.staged} with target
    [max 2 (ceil h/2)] and 4:2 compressors, chaining compressor
    carry-outs into the next column's cin within the same stage
    (ripple-free by the certified body's cin-independent carry-out). *)
val allocate_dadda : Netlist.t -> Matrix.t -> unit
