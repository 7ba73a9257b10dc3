(* The scalar two-valued logic simulator that [Dp_sim.Bitsim] replaced as
   the library's one cell evaluator, kept as the reference the tests diff
   [Bitsim] against lane by lane.  It evaluates the counters by their
   arithmetic semantics (the binary digits of the popcount), where
   [Bitsim] runs their certified recipe bodies, so each checks the other.
   Variables are assigned unsigned integers: bit [i] of variable [x] is
   [(assign x lsr i) land 1].  Not used outside the tests. *)

open Dp_netlist

(* Combinational function of one cell: output values (indexed by port)
   from the current net valuation. *)
let cell_outputs (c : Netlist.cell) values =
  let v i = values.(c.inputs.(i)) in
  match c.kind with
  | Dp_tech.Cell_kind.Fa ->
    let a = v 0 and b = v 1 and cin = v 2 in
    let sum = a <> b <> cin in
    let carry = (a && b) || (a && cin) || (b && cin) in
    [| sum; carry |]
  | Dp_tech.Cell_kind.Ha ->
    let a = v 0 and b = v 1 in
    [| a <> b; a && b |]
  | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73 ->
    (* arithmetic semantics: output the binary digits of the popcount;
       [Bitsim] evaluates the certified boolean recipes instead, so the
       two simulators cross-check the counter bodies *)
    let n = ref 0 in
    for i = 0 to Array.length c.inputs - 1 do
      if v i then incr n
    done;
    [| !n land 1 = 1; (!n lsr 1) land 1 = 1; (!n lsr 2) land 1 = 1 |]
  | Dp_tech.Cell_kind.C42 ->
    let x0 = v 0 and x1 = v 1 and x2 = v 2 and x3 = v 3 and ci = v 4 in
    let t = x0 <> x1 <> x2 in
    let cout = (x0 && x1) || (x0 && x2) || (x1 && x2) in
    let sum = t <> x3 <> ci in
    let carry = (t && x3) || (t && ci) || (x3 && ci) in
    [| sum; carry; cout |]
  | Dp_tech.Cell_kind.And_n n ->
    let acc = ref true in
    for i = 0 to n - 1 do
      acc := !acc && v i
    done;
    [| !acc |]
  | Dp_tech.Cell_kind.Or_n n ->
    let acc = ref false in
    for i = 0 to n - 1 do
      acc := !acc || v i
    done;
    [| !acc |]
  | Dp_tech.Cell_kind.Xor_n n ->
    let acc = ref false in
    for i = 0 to n - 1 do
      acc := !acc <> v i
    done;
    [| !acc |]
  | Dp_tech.Cell_kind.Not -> [| not (v 0) |]
  | Dp_tech.Cell_kind.Buf -> [| v 0 |]

(* Value of every net for the given input assignment, indexed by net
   id. *)
let run netlist ~assign =
  let n = Netlist.net_count netlist in
  let values = Array.make n false in
  (* Net ids are topologically ordered: a cell's inputs precede its outputs,
     so a single forward pass evaluates everything.  Both ports of an FA/HA
     are recomputed when each is reached; that is cheap and keeps the pass
     trivially correct. *)
  for net = 0 to n - 1 do
    match Netlist.driver netlist net with
    | Netlist.From_input { var; bit } ->
      values.(net) <- (assign var lsr bit) land 1 = 1
    | Netlist.From_const b -> values.(net) <- b
    | Netlist.From_cell { cell; port } ->
      let c = Netlist.cell netlist cell in
      values.(net) <- (cell_outputs c values).(port)
  done;
  values

(* Integer value of a bus, LSB-first. *)
let bus_value values nets =
  let acc = ref 0 in
  Array.iteri (fun bit net -> if values.(net) then acc := !acc lor (1 lsl bit)) nets;
  !acc

let output_value netlist values name =
  bus_value values (Netlist.find_output netlist name)

(* Simulate and read one output. *)
let eval_output netlist ~assign name =
  output_value netlist (run netlist ~assign) name

(* Compare the netlist's output against [Dp_expr.Eval.eval_mod] for one
   assignment (raw bit patterns covering every input); [signed] marks the
   variables whose patterns are read in two's complement. *)
let check_assignment ?(signed = fun (_ : string) -> false) netlist expr ~output
    ~width alist =
  let widths =
    List.map (fun (name, nets) -> name, Array.length nets) (Netlist.inputs netlist)
  in
  let interpret x =
    let raw = List.assoc x alist in
    if signed x then
      Dp_expr.Eval.signed_of_pattern ~width:(List.assoc x widths) raw
    else raw
  in
  let expected = Dp_expr.Eval.eval_mod ~width interpret expr in
  let actual = eval_output netlist ~assign:(fun x -> List.assoc x alist) output in
  if expected = actual then Ok ()
  else Error { Dp_sim.Equiv.assignment = alist; expected; actual }
