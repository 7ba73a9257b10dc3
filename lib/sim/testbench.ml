(* Self-checking Verilog testbench generation: stimulus vectors plus the
   expected outputs so the emitted netlist can be validated in any
   external Verilog simulator — the last leg of the flow the paper ran
   through Synopsys.  The stimulus is drawn as [Equiv] draws its random
   vectors, and the expected outputs are evaluated by [Bitsim], the
   library's one cell evaluator, 64 vectors per sweep; its reference is
   the scalar simulator in test/simulator_reference.ml. *)

open Dp_netlist

let emit ?(module_name = "datapath") ?(seed = 0x7b) ?(vectors = 64) netlist =
  let buffer = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  let ins = Netlist.inputs netlist in
  let outs = Netlist.outputs netlist in
  line "module %s_tb;" module_name;
  List.iter
    (fun (name, nets) -> line "  reg [%d:0] %s;" (Array.length nets - 1) name)
    ins;
  List.iter
    (fun (name, nets) -> line "  wire [%d:0] %s;" (Array.length nets - 1) name)
    outs;
  let ports = List.map fst ins @ List.map fst outs in
  line "  %s dut (%s);" module_name
    (String.concat ", " (List.map (fun p -> Printf.sprintf ".%s(%s)" p p) ports));
  line "  integer errors;";
  line "  initial begin";
  line "    errors = 0;";
  let rng = Random.State.make [| seed |] in
  let widths = List.map (fun (name, nets) -> (name, Array.length nets)) ins in
  (* Up to 64 vectors per sweep, drawn in order. *)
  let first = ref 0 in
  while !first < vectors do
    let lanes = min 64 (vectors - !first) in
    let alists = Array.init lanes (fun _ -> Equiv.random_assignment rng widths) in
    let values =
      Bitsim.run_lanes netlist ~lanes ~assign:(fun k name ->
          List.assoc name alists.(k))
    in
    Array.iteri
      (fun lane alist ->
        List.iter
          (fun (name, v) -> line "    %s = %d'd%d;" name (List.assoc name widths) v)
          alist;
        line "    #10;";
        List.iter
          (fun (name, nets) ->
            let expected = Bitsim.bus_value values nets ~lane in
            line "    if (%s !== %d'd%d) begin" name (Array.length nets) expected;
            line
              "      $display(\"FAIL vector %d: %s = %%d (expected %d)\", %s);"
              (!first + lane) name expected name;
            line "      errors = errors + 1;";
            line "    end")
          outs)
      alists;
    first := !first + lanes
  done;
  line "    if (errors == 0) $display(\"PASS: %d vectors\");" vectors;
  line "    else $display(\"%%0d ERRORS\", errors);";
  line "    $finish;";
  line "  end";
  line "endmodule";
  Buffer.contents buffer

let emit_with_dut ?module_name ?seed ?vectors netlist =
  Dp_netlist.Verilog.emit ?module_name netlist ^ "\n" ^ emit ?module_name ?seed ?vectors netlist
