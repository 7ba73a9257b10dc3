(* The original Printf-based Verilog emitter, kept verbatim as the
   byte-for-byte oracle for [Dp_netlist.Verilog.emit] (see
   [Test_verilog]).  Not used outside the tests. *)

open Dp_netlist

let fa_module =
  "module DP_FA (a, b, c, s, co);\n\
  \  input a, b, c;\n\
  \  output s, co;\n\
  \  assign {co, s} = a + b + c;\n\
   endmodule\n"

let ha_module =
  "module DP_HA (a, b, s, co);\n\
  \  input a, b;\n\
  \  output s, co;\n\
  \  assign {co, s} = a + b;\n\
   endmodule\n"

(* m:3 counters emit the binary digits of the input population count;
   the 4:2 compressor is written out gate-for-gate so its carry-out is
   visibly independent of ci. *)
let c53_module =
  "module DP_C53 (x0, x1, x2, x3, x4, s0, s1, s2);\n\
  \  input x0, x1, x2, x3, x4;\n\
  \  output s0, s1, s2;\n\
  \  assign {s2, s1, s0} = x0 + x1 + x2 + x3 + x4;\n\
   endmodule\n"

let c63_module =
  "module DP_C63 (x0, x1, x2, x3, x4, x5, s0, s1, s2);\n\
  \  input x0, x1, x2, x3, x4, x5;\n\
  \  output s0, s1, s2;\n\
  \  assign {s2, s1, s0} = x0 + x1 + x2 + x3 + x4 + x5;\n\
   endmodule\n"

let c73_module =
  "module DP_C73 (x0, x1, x2, x3, x4, x5, x6, s0, s1, s2);\n\
  \  input x0, x1, x2, x3, x4, x5, x6;\n\
  \  output s0, s1, s2;\n\
  \  assign {s2, s1, s0} = x0 + x1 + x2 + x3 + x4 + x5 + x6;\n\
   endmodule\n"

let c42_module =
  "module DP_C42 (x0, x1, x2, x3, ci, s, c, co);\n\
  \  input x0, x1, x2, x3, ci;\n\
  \  output s, c, co;\n\
  \  wire t;\n\
  \  assign co = (x0 & x1) | (x0 & x2) | (x1 & x2);\n\
  \  assign t = x0 ^ x1 ^ x2;\n\
  \  assign s = t ^ x3 ^ ci;\n\
  \  assign c = (t & x3) | (t & ci) | (x3 & ci);\n\
   endmodule\n"

let net_ref netlist net =
  match Netlist.driver netlist net with
  | Netlist.From_input { var; bit } -> Printf.sprintf "%s[%d]" var bit
  | Netlist.From_const b -> if b then "const1" else "const0"
  | Netlist.From_cell _ -> Printf.sprintf "n%d" net

let gate_primitive (kind : Dp_tech.Cell_kind.t) =
  match kind with
  | Dp_tech.Cell_kind.And_n _ -> "and"
  | Dp_tech.Cell_kind.Or_n _ -> "or"
  | Dp_tech.Cell_kind.Xor_n _ -> "xor"
  | Dp_tech.Cell_kind.Not -> "not"
  | Dp_tech.Cell_kind.Buf -> "buf"
  | Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha | Dp_tech.Cell_kind.C42
  | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73 ->
    invalid_arg "Verilog.gate_primitive: FA/HA/counters are submodules"

(* Every cell in id order, decoded as a record: the reader this emitter
   was written against. *)
let iter_cells f netlist =
  for id = 0 to Netlist.cell_count netlist - 1 do
    f id (Netlist.cell netlist id)
  done

let uses_const netlist b =
  let found = ref false in
  iter_cells
    (fun _ (c : Netlist.cell) ->
      Array.iter
        (fun input -> if Netlist.is_const netlist input b then found := true)
        c.inputs)
    netlist;
  (* constants can also be wired straight to outputs *)
  List.iter
    (fun (_, nets) ->
      Array.iter
        (fun net -> if Netlist.is_const netlist net b then found := true)
        nets)
    (Netlist.outputs netlist);
  !found

let emit ?(module_name = "datapath") netlist =
  let buffer = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  let ins = Netlist.inputs netlist in
  let outs = Netlist.outputs netlist in
  let port_names = List.map fst ins @ List.map fst outs in
  line "module %s (%s);" module_name (String.concat ", " port_names);
  List.iter
    (fun (name, nets) -> line "  input [%d:0] %s;" (Array.length nets - 1) name)
    ins;
  List.iter
    (fun (name, nets) -> line "  output [%d:0] %s;" (Array.length nets - 1) name)
    outs;
  if uses_const netlist false then begin
    line "  wire const0;";
    line "  assign const0 = 1'b0;"
  end;
  if uses_const netlist true then begin
    line "  wire const1;";
    line "  assign const1 = 1'b1;"
  end;
  (* one wire declaration per cell-driven net *)
  iter_cells
    (fun id _ ->
      Array.iter
        (fun net -> line "  wire n%d;" net)
        (Netlist.cell_output_nets netlist id))
    netlist;
  let used_fa = ref false and used_ha = ref false in
  let used_c42 = ref false and used_c53 = ref false in
  let used_c63 = ref false and used_c73 = ref false in
  let counter_instance id name in_refs (outputs : int array) =
    let ins =
      List.mapi (fun pin r -> Printf.sprintf ".x%d(%s)" pin r) in_refs
    in
    line "  %s u%d (%s, .s0(n%d), .s1(n%d), .s2(n%d));" name id
      (String.concat ", " ins) outputs.(0) outputs.(1) outputs.(2)
  in
  iter_cells
    (fun id (c : Netlist.cell) ->
      let outputs = Netlist.cell_output_nets netlist id in
      let in_refs = Array.to_list (Array.map (net_ref netlist) c.inputs) in
      match c.kind with
      | Dp_tech.Cell_kind.Fa ->
        used_fa := true;
        line "  DP_FA u%d (.a(%s), .b(%s), .c(%s), .s(n%d), .co(n%d));" id
          (List.nth in_refs 0) (List.nth in_refs 1) (List.nth in_refs 2)
          outputs.(0) outputs.(1)
      | Dp_tech.Cell_kind.Ha ->
        used_ha := true;
        line "  DP_HA u%d (.a(%s), .b(%s), .s(n%d), .co(n%d));" id
          (List.nth in_refs 0) (List.nth in_refs 1) outputs.(0) outputs.(1)
      | Dp_tech.Cell_kind.C53 ->
        used_c53 := true;
        counter_instance id "DP_C53" in_refs outputs
      | Dp_tech.Cell_kind.C63 ->
        used_c63 := true;
        counter_instance id "DP_C63" in_refs outputs
      | Dp_tech.Cell_kind.C73 ->
        used_c73 := true;
        counter_instance id "DP_C73" in_refs outputs
      | Dp_tech.Cell_kind.C42 ->
        used_c42 := true;
        line
          "  DP_C42 u%d (.x0(%s), .x1(%s), .x2(%s), .x3(%s), .ci(%s), \
           .s(n%d), .c(n%d), .co(n%d));"
          id (List.nth in_refs 0) (List.nth in_refs 1) (List.nth in_refs 2)
          (List.nth in_refs 3) (List.nth in_refs 4) outputs.(0) outputs.(1)
          outputs.(2)
      | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
      | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not
      | Dp_tech.Cell_kind.Buf ->
        line "  %s u%d (n%d, %s);" (gate_primitive c.kind) id outputs.(0)
          (String.concat ", " in_refs))
    netlist;
  List.iter
    (fun (name, nets) ->
      Array.iteri
        (fun bit net -> line "  assign %s[%d] = %s;" name bit (net_ref netlist net))
        nets)
    outs;
  line "endmodule";
  if !used_fa then Buffer.add_string buffer fa_module;
  if !used_ha then Buffer.add_string buffer ha_module;
  if !used_c42 then Buffer.add_string buffer c42_module;
  if !used_c53 then Buffer.add_string buffer c53_module;
  if !used_c63 then Buffer.add_string buffer c63_module;
  if !used_c73 then Buffer.add_string buffer c73_module;
  Buffer.contents buffer
