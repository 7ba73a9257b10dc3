(** Structural Verilog emission.

    The paper's tool emitted the allocated FA-tree as a Verilog netlist for
    Synopsys; we emit the same style: vector ports, one primitive gate or
    [DP_FA]/[DP_HA]/counter instance per cell, with the submodule
    definitions appended when used.  A [const0]/[const1] wire is declared
    only when some cell input or output bit reads that constant.

    Emission runs on every cache miss (each result record carries the
    netlist's byte count and MD5).  It writes into one [Bytes] buffer
    sized from the netlist up front, which doubles only if that estimate
    falls short.  Each line reserves room once; the literal text, byte
    by byte, and the decimal digits, two per division from a digit-pair
    table, then go in with bounds-checked writes that never grow the
    buffer.  A pin's reference comes from {!Netlist.driving_cell}
    without building a driver record.  The text is byte-identical to the
    original [Printf] emitter, which the tests keep as the reference. *)

(** The netlist as module [module_name] (default ["datapath"]) followed by
    the submodules it instantiates. *)
val emit : ?module_name:string -> Netlist.t -> string
