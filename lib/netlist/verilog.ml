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

(* Pin names of the submodule instances, by input pin and output port. *)
let fa_inputs = [| "a"; "b"; "c" |]
let ha_inputs = [| "a"; "b" |]
let sum_carry = [| "s"; "co" |]
let c42_inputs = [| "x0"; "x1"; "x2"; "x3"; "ci" |]
let c42_outputs = [| "s"; "c"; "co" |]
let counter_inputs = [| "x0"; "x1"; "x2"; "x3"; "x4"; "x5"; "x6" |]
let counter_outputs = [| "s0"; "s1"; "s2" |]

(* Decimal digits of a non-negative [n], appended without the string
   [string_of_int] would allocate: on large netlists that allocation
   costs more than all the other appends together. *)
let rec add_nat buffer n =
  if n >= 10 then add_nat buffer (n / 10);
  Buffer.add_char buffer (Char.unsafe_chr (48 + (n mod 10)))

let add_net_ref buffer netlist net =
  match Netlist.driver netlist net with
  | Netlist.From_input { var; bit } ->
    Buffer.add_string buffer var;
    Buffer.add_char buffer '[';
    add_nat buffer bit;
    Buffer.add_char buffer ']'
  | Netlist.From_const b -> Buffer.add_string buffer (if b then "const1" else "const0")
  | Netlist.From_cell _ ->
    Buffer.add_char buffer 'n';
    add_nat buffer net

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

(* Which constant polarities some cell input or output bit reads, in one
   scan.  A constant net nothing reads gets no wire. *)
let consts_used netlist =
  let used0 = ref false and used1 = ref false in
  let note net =
    match Netlist.driver netlist net with
    | Netlist.From_const b -> if b then used1 := true else used0 := true
    | Netlist.From_input _ | Netlist.From_cell _ -> ()
  in
  Netlist.iter_cells (fun _ (c : Netlist.cell) -> Array.iter note c.inputs) netlist;
  List.iter (fun (_, nets) -> Array.iter note nets) (Netlist.outputs netlist);
  (!used0, !used1)

let emit ?(module_name = "datapath") netlist =
  let buffer = Buffer.create 4096 in
  (* Every line is appended as its literal pieces ([str], [chr]) with the
     integers ([num]) and pin references ([ref_]) between them. *)
  let str s = Buffer.add_string buffer s in
  let chr c = Buffer.add_char buffer c in
  let num n = add_nat buffer n in
  let ref_ net = add_net_ref buffer netlist net in
  let ins = Netlist.inputs netlist in
  let outs = Netlist.outputs netlist in
  str "module ";
  str module_name;
  str " (";
  List.iteri
    (fun i (name, _) ->
      if i > 0 then str ", ";
      str name)
    (ins @ outs);
  str ");\n";
  let port dir (name, nets) =
    str dir;
    (* once per bus, and [-1] for an empty one *)
    str (string_of_int (Array.length nets - 1));
    str ":0] ";
    str name;
    str ";\n"
  in
  List.iter (port "  input [") ins;
  List.iter (port "  output [") outs;
  let const0, const1 = consts_used netlist in
  if const0 then str "  wire const0;\n  assign const0 = 1'b0;\n";
  if const1 then str "  wire const1;\n  assign const1 = 1'b1;\n";
  (* one wire declaration per cell-driven net *)
  Netlist.iter_cells
    (fun id _ ->
      Array.iter
        (fun net ->
          str "  wire n";
          num net;
          str ";\n")
        (Netlist.cell_output_nets netlist id))
    netlist;
  let used_fa = ref false and used_ha = ref false in
  let used_c42 = ref false and used_c53 = ref false in
  let used_c63 = ref false and used_c73 = ref false in
  (* [head] is the line up to the instance number, e.g. ["  DP_FA u"] *)
  let instance head id in_names (i : int array) out_names (o : int array) =
    str head;
    num id;
    str " (";
    for k = 0 to Array.length i - 1 do
      if k > 0 then str ", ";
      chr '.';
      str in_names.(k);
      chr '(';
      ref_ i.(k);
      chr ')'
    done;
    for k = 0 to Array.length o - 1 do
      str ", .";
      str out_names.(k);
      str "(n";
      num o.(k);
      chr ')'
    done;
    str ");\n"
  in
  Netlist.iter_cells
    (fun id (c : Netlist.cell) ->
      let o = Netlist.cell_output_nets netlist id in
      let i = c.inputs in
      match c.kind with
      | Dp_tech.Cell_kind.Fa ->
        used_fa := true;
        instance "  DP_FA u" id fa_inputs i sum_carry o
      | Dp_tech.Cell_kind.Ha ->
        used_ha := true;
        instance "  DP_HA u" id ha_inputs i sum_carry o
      | Dp_tech.Cell_kind.C53 ->
        used_c53 := true;
        instance "  DP_C53 u" id counter_inputs i counter_outputs o
      | Dp_tech.Cell_kind.C63 ->
        used_c63 := true;
        instance "  DP_C63 u" id counter_inputs i counter_outputs o
      | Dp_tech.Cell_kind.C73 ->
        used_c73 := true;
        instance "  DP_C73 u" id counter_inputs i counter_outputs o
      | Dp_tech.Cell_kind.C42 ->
        used_c42 := true;
        instance "  DP_C42 u" id c42_inputs i c42_outputs o
      | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
      | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not
      | Dp_tech.Cell_kind.Buf ->
        str "  ";
        str (gate_primitive c.kind);
        str " u";
        num id;
        str " (n";
        num o.(0);
        str ", ";
        for k = 0 to Array.length i - 1 do
          if k > 0 then str ", ";
          ref_ i.(k)
        done;
        str ");\n")
    netlist;
  List.iter
    (fun (name, nets) ->
      Array.iteri
        (fun bit net ->
          str "  assign ";
          str name;
          chr '[';
          num bit;
          str "] = ";
          ref_ net;
          str ";\n")
        nets)
    outs;
  str "endmodule\n";
  if !used_fa then str fa_module;
  if !used_ha then str ha_module;
  if !used_c42 then str c42_module;
  if !used_c53 then str c53_module;
  if !used_c63 then str c63_module;
  if !used_c73 then str c73_module;
  Buffer.contents buffer
