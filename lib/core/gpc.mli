(** Generalized parallel-counter (GPC) allocation strategies.

    Extends the paper's greedy FA/HA column discipline to the certified
    counter cells of {!Dp_counters}: the sweep-style strategies split
    columns with 7:3/6:3/5:3 counters under the SC_T (earliest-arrival)
    or SC_LP (largest-|q|) orders, and a Dadda-style staged tree halves
    the matrix height with 4:2 compressors.  Every [allocate_*] entry
    first runs {!Dp_counters.Certify.ensure} for the netlist's
    technology, so counter bodies are exhaustively proven before any
    instance is built. *)

open Dp_netlist
open Dp_bitmatrix

(** A generalized column reducer: returns the kept addends (at most two)
    plus the carries for weights [j+1] and [j+2]. *)
type reducer =
  Netlist.t ->
  Netlist.net list ->
  Netlist.net list * Netlist.net list * Netlist.net list

(** [Reduce.sweep] generalized to counter reducers: rightmost column
    first, inserting weight-[j+1] and weight-[j+2] carries before those
    columns are processed.  @raise Invalid_argument if the reducer leaves
    more than two addends. *)
val sweep : Netlist.t -> Matrix.t -> reducer:reducer -> unit

(** Split-and-fill under the SC_T order: counters (7:3, then 6:3, then
    5:3) pack the column's near-simultaneous cohort — addends within one
    FA sum delay of the earliest, i.e. the native bulk, never the late
    carries from already-reduced columns — earliest arrivals on the slow
    low pins; the leftovers and counter sums then go through the plain
    FA/HA greedy (FA while four or more remain, HA at three), leaving at
    most two.  Returns [(kept, weight-(j+1) carries, weight-(j+2)
    carries)]. *)
val reduce_column_t :
  ?tie_break:Sc_t.tie_break ->
  Netlist.t ->
  Netlist.net list ->
  Netlist.net list * Netlist.net list * Netlist.net list

(** The same split-and-fill rule under the SC_LP order (largest |q|
    absorbed first), with an unrestricted cohort: the power objective
    packs as many addends into counters as possible. *)
val reduce_column_lp :
  ?tie_break:Sc_lp.tie_break ->
  Netlist.t ->
  Netlist.net list ->
  Netlist.net list * Netlist.net list * Netlist.net list

(** Timing-driven counter allocation over the whole matrix. *)
val allocate_t : ?tie_break:Sc_t.tie_break -> Netlist.t -> Matrix.t -> unit

(** Power-driven counter allocation over the whole matrix. *)
val allocate_lp : ?tie_break:Sc_lp.tie_break -> Netlist.t -> Matrix.t -> unit

(** Dadda-style staged 4:2 tree: each stage reduces the height to
    [max 2 (ceil h/2)], chaining compressor carry-outs into the next
    column's cin within the same stage (ripple-free by the certified
    body's cin-independent carry-out). *)
val allocate_dadda : Netlist.t -> Matrix.t -> unit
