(** The right-to-left column sweep shared by every column reducer: FA_AOT,
    FA_ALP, FA_random, column isolation and the counter-aware {!Gpc}
    strategies.

    A column reducer takes the addends of one column (more than two) and
    returns the at-most-two addends it keeps in that column plus the
    carry-out addends it sends to the next column. *)

open Dp_netlist
open Dp_bitmatrix

type column_reducer =
  Netlist.t -> Netlist.net list -> Netlist.net list * Netlist.net list

(** Reduce every column of [matrix] (in place) to at most two addends.
    @raise Invalid_argument if the reducer keeps more than two addends. *)
val sweep : Netlist.t -> Matrix.t -> reducer:column_reducer -> unit

(** The same sweep for reducers whose cells may be m:3 counters: besides
    the kept addends and the weight-[j+1] carries, the reducer returns
    the counters' top digits, which land at weight [j+2] after the
    carries.  @raise Invalid_argument as {!sweep}. *)
val sweep_counters :
  Netlist.t ->
  Matrix.t ->
  reducer:
    (Netlist.t ->
    Netlist.net list ->
    Netlist.net list * Netlist.net list * Netlist.net list) ->
  unit
