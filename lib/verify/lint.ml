open Dp_netlist

type rule =
  | Dangling_ref
  | Bad_driver
  | Driver_mismatch
  | Multiply_driven
  | Topo_violation
  | Combinational_cycle
  | Arity_violation
  | Prob_range
  | Const_prob
  | Arrival_range
  | Unreachable_cell
  | No_outputs
  | Empty_port

type loc = Net of Netlist.net | Cell of int | Port of string | Netlist

type finding = {
  rule : rule;
  severity : Dp_diag.Diag.severity;
  loc : loc;
  message : string;
}

let rule_name = function
  | Dangling_ref -> "dangling-ref"
  | Bad_driver -> "bad-driver"
  | Driver_mismatch -> "driver-mismatch"
  | Multiply_driven -> "multiply-driven"
  | Topo_violation -> "topo-violation"
  | Combinational_cycle -> "combinational-cycle"
  | Arity_violation -> "arity-violation"
  | Prob_range -> "prob-range"
  | Const_prob -> "const-prob"
  | Arrival_range -> "arrival-range"
  | Unreachable_cell -> "unreachable-cell"
  | No_outputs -> "no-outputs"
  | Empty_port -> "empty-port"

let severity_of_rule = function
  (* Dead gates are wasted area, not corruption: the builder legitimately
     leaves them behind wherever a dropped MSB carry-out was computed by a
     dedicated gate (degraded FAs, CLA group-carry terms). *)
  | Unreachable_cell -> Dp_diag.Diag.Info
  | No_outputs | Empty_port -> Dp_diag.Diag.Warning
  | Dangling_ref | Bad_driver | Driver_mismatch | Multiply_driven
  | Topo_violation | Combinational_cycle | Arity_violation | Prob_range
  | Const_prob | Arrival_range ->
    Dp_diag.Diag.Error

let pp_loc ppf = function
  | Net n -> Fmt.pf ppf "net %d" n
  | Cell c -> Fmt.pf ppf "cell %d" c
  | Port p -> Fmt.pf ppf "port %s" p
  | Netlist -> Fmt.string ppf "netlist"

let pp_finding ppf f =
  Fmt.pf ppf "%a[%s] %a: %s" Dp_diag.Diag.pp_severity f.severity
    (rule_name f.rule) pp_loc f.loc f.message

let to_diag f =
  Dp_diag.Diag.v ~severity:f.severity
    ~context:[ ("where", Fmt.str "%a" pp_loc f.loc) ]
    ~code:("DP-LINT-" ^ rule_name f.rule)
    ~subsystem:"lint" f.message

let run nl =
  let ncount = Netlist.net_count nl in
  let ccount = Netlist.cell_count nl in
  let findings = ref [] in
  let add rule loc fmt =
    Fmt.kstr
      (fun message ->
        findings :=
          { rule; severity = severity_of_rule rule; loc; message } :: !findings)
      fmt
  in
  let valid n = n >= 0 && n < ncount in
  (* Per-cell signature and ordering checks. *)
  for c = 0 to ccount - 1 do
    let kind = Netlist.cell_kind nl c in
    let pins = Netlist.pin_count nl c in
    let arity = Dp_tech.Cell_kind.arity kind in
    if pins <> arity then
      add Arity_violation (Cell c) "%s has %d inputs, expected %d"
        (Dp_tech.Cell_kind.name kind) pins arity;
    (match kind with
    | Dp_tech.Cell_kind.And_n n | Or_n n | Xor_n n ->
      if n < 2 then
        add Arity_violation (Cell c) "%s: n-ary gate with n = %d < 2"
          (Dp_tech.Cell_kind.name kind) n
    | Fa | Ha | C42 | C53 | C63 | C73 | Not | Buf -> ());
    for pin = 0 to pins - 1 do
      let n = Netlist.pin nl c pin in
      if not (valid n) then
        add Dangling_ref (Cell c) "input pin %d references nonexistent net %d"
          pin n
    done;
    (* A cell's output nets follow from its kind, so only their range can
       be wrong. *)
    let min_out = ref max_int in
    for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
      let n = Netlist.output_net nl c ~port in
      if not (valid n) then
        add Dangling_ref (Cell c) "output port %d maps to nonexistent net %d"
          port n;
      min_out := min !min_out n
    done;
    for pin = 0 to pins - 1 do
      let n = Netlist.pin nl c pin in
      if valid n && n >= !min_out then
        add Topo_violation (Cell c)
          "input pin %d consumes net %d, not older than output net %d" pin n
          !min_out
    done
  done;
  (* Per-net driver and annotation checks. *)
  let port_driver = Hashtbl.create 97 in
  for n = 0 to ncount - 1 do
    (match Netlist.driver nl n with
    | Netlist.From_input _ | Netlist.From_const _ -> ()
    | Netlist.From_cell { cell; port } ->
      if cell < 0 || cell >= ccount then
        add Bad_driver (Net n) "driven by nonexistent cell %d" cell
      else begin
        let ports =
          Dp_tech.Cell_kind.output_count (Netlist.cell_kind nl cell)
        in
        if port < 0 || port >= ports then
          add Bad_driver (Net n) "driven by cell %d port %d, which has %d ports"
            cell port ports
        else if Netlist.output_net nl cell ~port <> n then
          add Driver_mismatch (Net n)
            "claims cell %d port %d as driver, but that port produces net %d"
            cell port
            (Netlist.output_net nl cell ~port);
        match Hashtbl.find_opt port_driver (cell, port) with
        | Some first ->
          add Multiply_driven (Net n) "cell %d port %d already drives net %d"
            cell port first
        | None -> Hashtbl.add port_driver (cell, port) n
      end);
    let p = Netlist.prob nl n in
    if Float.is_nan p || p < 0.0 || p > 1.0 then
      add Prob_range (Net n) "1-probability %g outside [0, 1]" p
    else begin
      match Netlist.const_value nl n with
      | Some b ->
        let expect = if b then 1.0 else 0.0 in
        if p <> expect then
          add Const_prob (Net n) "constant %b annotated with probability %g" b p
      | None -> ()
    end;
    let a = Netlist.arrival nl n in
    if not (Float.is_finite a) then
      add Arrival_range (Net n) "arrival time %g is not finite" a
  done;
  (* Combinational cycles through cells (iterative 3-color DFS; a cycle
     always also violates net ordering, but the distinct finding tells the
     user the netlist is unevaluable rather than merely misordered). *)
  let deps c =
    let acc = ref [] in
    for pin = Netlist.pin_count nl c - 1 downto 0 do
      let n = Netlist.pin nl c pin in
      if valid n then
        let cell = Netlist.driving_cell nl n in
        if cell >= 0 && cell < ccount then acc := cell :: !acc
    done;
    !acc
  in
  let color = Array.make (max ccount 1) 0 in
  for root = 0 to ccount - 1 do
    if color.(root) = 0 then begin
      color.(root) <- 1;
      let stack = ref [ (root, deps root) ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | (c, []) :: rest ->
          color.(c) <- 2;
          stack := rest
        | (c, d :: more) :: rest ->
          stack := (c, more) :: rest;
          if color.(d) = 1 then
            add Combinational_cycle (Cell c)
              "depends (transitively) on its own output via cell %d" d
          else if color.(d) = 0 then begin
            color.(d) <- 1;
            stack := (d, deps d) :: !stack
          end
      done
    end
  done;
  (* Port-level checks and cell reachability from the declared outputs. *)
  let outputs = Netlist.outputs nl in
  if outputs = [] then add No_outputs Netlist "no outputs declared";
  List.iter
    (fun (name, nets) ->
      if Array.length nets = 0 then
        add Empty_port (Port name) "declared input bus has width 0")
    (Netlist.inputs nl);
  List.iter
    (fun (name, nets) ->
      if Array.length nets = 0 then
        add Empty_port (Port name) "declared output bus has width 0";
      Array.iteri
        (fun bit n ->
          if not (valid n) then
            add Dangling_ref (Port name) "bit %d references nonexistent net %d"
              bit n)
        nets)
    outputs;
  let reached = Array.make (max ccount 1) false in
  let mark_stack = ref [] in
  let push_net n =
    if valid n then
      let cell = Netlist.driving_cell nl n in
      if cell >= 0 && cell < ccount && not reached.(cell) then begin
        reached.(cell) <- true;
        mark_stack := cell :: !mark_stack
      end
  in
  List.iter (fun (_, nets) -> Array.iter push_net nets) outputs;
  while !mark_stack <> [] do
    match !mark_stack with
    | [] -> ()
    | c :: rest ->
      mark_stack := rest;
      for pin = 0 to Netlist.pin_count nl c - 1 do
        push_net (Netlist.pin nl c pin)
      done
  done;
  for c = 0 to ccount - 1 do
    if not reached.(c) then
      add Unreachable_cell (Cell c) "%s feeds no declared output"
        (Dp_tech.Cell_kind.name (Netlist.cell_kind nl c))
  done;
  List.rev !findings

let errors fs =
  List.filter (fun f -> f.severity = Dp_diag.Diag.Error) fs

let significant fs =
  List.filter
    (fun f ->
      match f.severity with
      | Dp_diag.Diag.Warning | Dp_diag.Diag.Error -> true
      | Dp_diag.Diag.Info -> false)
    fs

type check_level = Off | Warn | Strict

let check_level_name = function
  | Off -> "off"
  | Warn -> "warn"
  | Strict -> "strict"

let check_level_of_name s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Some Off
  | "warn" | "warning" -> Some Warn
  | "strict" | "error" -> Some Strict
  | _ -> None

let default_on_finding f = Fmt.epr "lint: %a@." pp_finding f

let gate ~level ?(on_finding = default_on_finding) nl =
  match level with
  | Off -> Ok ()
  | Warn ->
    List.iter on_finding (run nl);
    Ok ()
  | Strict -> (
    match significant (run nl) with
    | [] -> Ok ()
    | first :: _ as fs ->
      List.iter on_finding fs;
      Dp_diag.Diag.error
        (Dp_diag.Diag.errorf
           ~context:
             [
               ("findings", string_of_int (List.length fs));
               ("first-rule", rule_name first.rule);
             ]
           ~code:"DP-SYNTH002" ~subsystem:"synth"
           "netlist failed strict integrity check: %s" first.message))
