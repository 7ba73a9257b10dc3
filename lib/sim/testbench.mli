(** Self-checking Verilog testbench generation: seeded random stimulus with
    expected outputs pre-computed by {!Bitsim}, so the emitted netlist can
    be validated in any external Verilog simulator.  Inputs of any width
    up to 62 bits are drawn as {!Equiv.random_assignment} draws them. *)

open Dp_netlist

(** The testbench module ([<module_name>_tb]) alone. *)
val emit : ?module_name:string -> ?seed:int -> ?vectors:int -> Netlist.t -> string

(** DUT (via {!Verilog.emit}) followed by its testbench — one
    ready-to-simulate file. *)
val emit_with_dut :
  ?module_name:string -> ?seed:int -> ?vectors:int -> Netlist.t -> string
