(** Structural Verilog emission.

    The paper's tool emitted the allocated FA-tree as a Verilog netlist for
    Synopsys; we emit the same style: vector ports, one primitive gate or
    [DP_FA]/[DP_HA]/counter instance per cell, with the submodule
    definitions appended when used.  A [const0]/[const1] wire is declared
    only when some cell input or output bit reads that constant.

    Emission runs on every cache miss (each result record carries the
    netlist's byte count and MD5), so it appends literal text, characters
    and decimal digits straight into one buffer, with no per-line
    formatting and no intermediate strings. *)

(** The netlist as module [module_name] (default ["datapath"]) followed by
    the submodules it instantiates. *)
val emit : ?module_name:string -> Netlist.t -> string
