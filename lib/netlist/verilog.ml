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

(* ------------------------------------------------------------------ *)
(* The writer.  The text goes into one [Bytes] buffer, sized from the
   netlist before the first line.  Each line first [reserve]s an upper
   bound on its length, so that the writes after it need not grow the
   buffer; the buffer doubles only when the size estimate falls short.
   Every write is bounds-checked: a bound that falls short can make a
   write raise, never write past the buffer.  [const0] and [const1]
   record whether a reference read that constant. *)

type out = {
  mutable bytes : Bytes.t;
  mutable pos : int;
  mutable const0 : bool;
  mutable const1 : bool;
}

let create size =
  { bytes = Bytes.create size; pos = 0; const0 = false; const1 = false }

let reserve o n =
  let need = o.pos + n in
  if need > Bytes.length o.bytes then begin
    let cap = ref (Bytes.length o.bytes) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bytes = Bytes.create !cap in
    Bytes.blit o.bytes 0 bytes 0 o.pos;
    o.bytes <- bytes
  end

(* Most pieces are literals of a few bytes, which a byte loop copies
   faster than a call to blit. *)
let str o s =
  let b = o.bytes and pos = o.pos in
  for i = 0 to String.length s - 1 do
    Bytes.set b (pos + i) (String.unsafe_get s i)
  done;
  o.pos <- pos + String.length s

let chr o c =
  Bytes.set o.bytes o.pos c;
  o.pos <- o.pos + 1

let rec digit_count n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else if n < 10_000 then 4
  else 4 + digit_count (n / 10_000)

(* The two decimal digits of [k < 100] at [2k] and [2k + 1]. *)
let digit_pairs =
  String.init 200 (fun i ->
      let k = i / 2 in
      Char.unsafe_chr (48 + if i land 1 = 0 then k / 10 else k mod 10))

(* Decimal digits of a non-negative [n], written from the last one back,
   two per division. *)
let num o n =
  let b = o.bytes in
  let stop = o.pos + digit_count n in
  let n = ref n and at = ref stop in
  while !n >= 100 do
    let q = !n / 100 in
    let k = 2 * (!n - (100 * q)) in
    at := !at - 2;
    Bytes.set b !at digit_pairs.[k];
    Bytes.set b (!at + 1) digit_pairs.[k + 1];
    n := q
  done;
  if !n >= 10 then begin
    let k = 2 * !n in
    Bytes.set b (!at - 2) digit_pairs.[k];
    Bytes.set b (!at - 1) digit_pairs.[k + 1]
  end
  else Bytes.set b (!at - 1) (Char.unsafe_chr (48 + !n));
  o.pos <- stop

(* Any integer, in at most 20 bytes: bus bounds are [-1] for an empty bus,
   and a [Netlist.Mutate] driver may name any bit. *)
let int o n = if n >= 0 then num o n else str o (string_of_int n)

(* A pin's reference to [net].  The line's reservation counted a cell or
   constant reference for it; an input name has no such bound, so an
   input reference reserves its own length plus the line bound [line]
   again, which keeps the rest of the line covered. *)
let net_ref o netlist ~line net =
  if Netlist.driving_cell netlist net >= 0 then begin
    chr o 'n';
    num o net
  end
  else
    match Netlist.driver netlist net with
    | Netlist.From_input { var; bit } ->
      reserve o (String.length var + 22 + line);
      str o var;
      chr o '[';
      int o bit;
      chr o ']'
    | Netlist.From_const true ->
      o.const1 <- true;
      str o "const1"
    | Netlist.From_const false ->
      o.const0 <- true;
      str o "const0"
    | Netlist.From_cell _ ->
      (* a [Netlist.Mutate] driver naming a negative cell id *)
      chr o 'n';
      num o net

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

(* An upper bound on the length of a cell's instance line when every
   number has at most [d] digits and every pin reads a cell or constant
   reference of at most [ref_max] bytes. *)
let line_bound ~d ~ref_max (kind : Dp_tech.Cell_kind.t) ~pins =
  match kind with
  | Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha | Dp_tech.Cell_kind.C42
  | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73 ->
    16 + d + (pins * (7 + ref_max))
    + (Dp_tech.Cell_kind.output_count kind * (8 + d))
  | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
  | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not | Dp_tech.Cell_kind.Buf ->
    16 + (2 * d) + (pins * (2 + ref_max))

(* Everything after the constant wires: one wire per cell-driven net, one
   line per cell, the output assignments and the submodules.  The size
   estimate sums the cells' wire and instance line bounds and the
   assignments' bounds, plus 1 KiB for the submodules. *)
let body netlist outs =
  (* Every net id, cell id and output net a cell claims is below
     [net_count + 3], so it has at most [d] digits. *)
  let d = digit_count (Netlist.net_count netlist + 3) in
  let ref_max = Int.max 6 (1 + d) in
  let size =
    List.fold_left
      (fun acc (name, nets) ->
        acc + (Array.length nets * (String.length name + 16 + d + ref_max)))
      1024 outs
  in
  let cells = Netlist.cell_count netlist in
  let size = ref size in
  for id = 0 to cells - 1 do
    let kind = Netlist.cell_kind netlist id in
    size :=
      !size
      + line_bound ~d ~ref_max kind ~pins:(Netlist.pin_count netlist id)
      + (Dp_tech.Cell_kind.output_count kind * (10 + d))
  done;
  (* Input references may outgrow [ref_max]; then the buffer doubles. *)
  let o = create !size in
  for id = 0 to cells - 1 do
    let first = Netlist.output_net netlist id ~port:0 in
    let count = Dp_tech.Cell_kind.output_count (Netlist.cell_kind netlist id) in
    reserve o (count * (10 + d));
    for port = 0 to count - 1 do
      str o "  wire n";
      num o (first + port);
      str o ";\n"
    done
  done;
  let used_fa = ref false and used_ha = ref false in
  let used_c42 = ref false and used_c53 = ref false in
  let used_c63 = ref false and used_c73 = ref false in
  (* [head] is the line up to the instance number, e.g. ["  DP_FA u"] *)
  let instance head id kind ~pins in_names out_names =
    let first = Netlist.output_net netlist id ~port:0 in
    let line = line_bound ~d ~ref_max kind ~pins in
    reserve o line;
    str o head;
    num o id;
    str o " (";
    for k = 0 to pins - 1 do
      if k > 0 then str o ", ";
      chr o '.';
      str o in_names.(k);
      chr o '(';
      net_ref o netlist ~line (Netlist.pin netlist id k);
      chr o ')'
    done;
    for k = 0 to Array.length out_names - 1 do
      str o ", .";
      str o out_names.(k);
      str o "(n";
      num o (first + k);
      chr o ')'
    done;
    str o ");\n"
  in
  for id = 0 to cells - 1 do
    let kind = Netlist.cell_kind netlist id in
    let pins = Netlist.pin_count netlist id in
    match kind with
    | Dp_tech.Cell_kind.Fa ->
      used_fa := true;
      instance "  DP_FA u" id kind ~pins fa_inputs sum_carry
    | Dp_tech.Cell_kind.Ha ->
      used_ha := true;
      instance "  DP_HA u" id kind ~pins ha_inputs sum_carry
    | Dp_tech.Cell_kind.C53 ->
      used_c53 := true;
      instance "  DP_C53 u" id kind ~pins counter_inputs counter_outputs
    | Dp_tech.Cell_kind.C63 ->
      used_c63 := true;
      instance "  DP_C63 u" id kind ~pins counter_inputs counter_outputs
    | Dp_tech.Cell_kind.C73 ->
      used_c73 := true;
      instance "  DP_C73 u" id kind ~pins counter_inputs counter_outputs
    | Dp_tech.Cell_kind.C42 ->
      used_c42 := true;
      instance "  DP_C42 u" id kind ~pins c42_inputs c42_outputs
    | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
    | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not
    | Dp_tech.Cell_kind.Buf ->
      let line = line_bound ~d ~ref_max kind ~pins in
      reserve o line;
      str o "  ";
      str o (gate_primitive kind);
      str o " u";
      num o id;
      str o " (n";
      num o (Netlist.output_net netlist id ~port:0);
      str o ", ";
      for k = 0 to pins - 1 do
        if k > 0 then str o ", ";
        net_ref o netlist ~line (Netlist.pin netlist id k)
      done;
      str o ");\n"
  done;
  List.iter
    (fun (name, nets) ->
      Array.iteri
        (fun bit net ->
          let line = String.length name + 16 + digit_count bit + ref_max in
          reserve o line;
          str o "  assign ";
          str o name;
          chr o '[';
          num o bit;
          str o "] = ";
          net_ref o netlist ~line net;
          str o ";\n")
        nets)
    outs;
  let text s =
    reserve o (String.length s);
    str o s
  in
  text "endmodule\n";
  if !used_fa then text fa_module;
  if !used_ha then text ha_module;
  if !used_c42 then text c42_module;
  if !used_c53 then text c53_module;
  if !used_c63 then text c63_module;
  if !used_c73 then text c73_module;
  o

(* The module line, the port lines and the wire of each constant the body
   read: a constant nothing reads gets no wire.  The header is written
   after the body, which is what tells which constants are read, and goes
   in front of it in the one copy that makes the string. *)
let emit ?(module_name = "datapath") netlist =
  let ins = Netlist.inputs netlist in
  let outs = Netlist.outputs netlist in
  let b = body netlist outs in
  let ports = ins @ outs in
  (* sized to bound every header line, so none of them reserves *)
  let h =
    create
      (List.fold_left
         (fun acc (name, _) -> acc + (2 * String.length name) + 42)
         (String.length module_name + 96)
         ports)
  in
  str h "module ";
  str h module_name;
  str h " (";
  List.iteri
    (fun i (name, _) ->
      if i > 0 then str h ", ";
      str h name)
    ports;
  str h ");\n";
  let port dir (name, nets) =
    str h dir;
    int h (Array.length nets - 1);
    str h ":0] ";
    str h name;
    str h ";\n"
  in
  List.iter (port "  input [") ins;
  List.iter (port "  output [") outs;
  if b.const0 then str h "  wire const0;\n  assign const0 = 1'b0;\n";
  if b.const1 then str h "  wire const1;\n  assign const1 = 1'b1;\n";
  let text = Bytes.create (h.pos + b.pos) in
  Bytes.blit h.bytes 0 text 0 h.pos;
  Bytes.blit b.bytes 0 text h.pos b.pos;
  Bytes.unsafe_to_string text
