(** Bit-parallel (64-wide) logic simulation: the library's one cell
    evaluator.

    One [int64] word per net packs the net's value under up to 64 distinct
    input assignments ("lanes"): bit [k] of the word is the net's value in
    lane [k].  A single forward sweep of the netlist therefore simulates 64
    vectors at the cost a scalar simulator pays for one, because every
    gate evaluates as one or two word-wide boolean operations.

    [Equiv], [Monte_carlo], [Testbench], [Event_sim] (through
    {!eval_cell}) and the fuzz oracle all evaluate cells here.  The
    reference is the test suite's scalar [simulator_reference.ml], which
    evaluates counters by popcount, not through their recipe bodies; the
    tests diff the two lane by lane. *)

open Dp_netlist

(** [eval_cell netlist id kind values out] evaluates cell [id] of kind
    [kind] on the packed net words [values] and writes output port [p]'s
    word to [out.(p)]; [out] holds at least the kind's output count. *)
val eval_cell :
  Netlist.t -> int -> Dp_tech.Cell_kind.t -> int64 array -> int64 array ->
  unit

(** Packed value of every net, indexed by net id.  [assign var bit] is the
    packed word of input bit [bit] of variable [var]; lanes the caller
    never reads may hold anything.  Each cell is evaluated once per
    sweep, when its first output net comes up; on a corrupted netlist, a
    cell that reads its own or a later net is evaluated again for each
    net it drives. *)
val run : Netlist.t -> assign:(string -> int -> int64) -> int64 array

(** Pack [lanes] scalar assignments (lane [k] assigns [assign k var] to
    variable [var]; bit [i] of that integer is input bit [i]) and sweep
    once.
    @raise Invalid_argument unless [1 <= lanes <= 64]. *)
val run_lanes :
  Netlist.t -> lanes:int -> assign:(int -> string -> int) -> int64 array

(** Value of net [net] in lane [lane]. *)
val lane_bit : int64 array -> Netlist.net -> lane:int -> bool

(** Integer value of a bus in one lane, LSB-first. *)
val bus_value : int64 array -> Netlist.net array -> lane:int -> int

(** Simulated packed values of a declared output in one lane.
    @raise Invalid_argument if the output is not declared. *)
val output_value : Netlist.t -> int64 array -> lane:int -> string -> int

(** [lane_mask lanes] has bits [0 .. lanes-1] set ([lanes <= 64]);
    masks the defined lanes of a packed word. *)
val lane_mask : int -> int64

(** Set bits of a word (SWAR, no hardware popcount dependency). *)
val popcount : int64 -> int
