open Dp_netlist
open Dp_sim
open Helpers

let test_bus_value () =
  let values = [| true; false; true; true |] in
  checki "1101b" 13 (Simulator_reference.bus_value values [| 0; 1; 2; 3 |])

let test_run_gates () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:2 in
  Netlist.set_output n "and" [| Netlist.and_n n [ bits.(0); bits.(1) ] |];
  Netlist.set_output n "or" [| Netlist.or_n n [ bits.(0); bits.(1) ] |];
  Netlist.set_output n "xor" [| Netlist.xor2 n bits.(0) bits.(1) |];
  List.iter
    (fun (v, e_and, e_or, e_xor) ->
      let values = Simulator_reference.run n ~assign:(fun _ -> v) in
      checki "and" e_and (Simulator_reference.output_value n values "and");
      checki "or" e_or (Simulator_reference.output_value n values "or");
      checki "xor" e_xor (Simulator_reference.output_value n values "xor"))
    [ (0, 0, 0, 0); (1, 0, 1, 1); (2, 0, 1, 1); (3, 1, 1, 0) ]

let test_equiv_detects_mismatch () =
  (* wire the output to the wrong bit: equivalence must fail *)
  let n = mk_netlist () in
  let bits = Netlist.add_input n "x" ~width:2 in
  Netlist.set_output n "out" [| bits.(1); bits.(0) |] (* swapped! *);
  let expr = Dp_expr.Parse.expr "x" in
  match Equiv.check_exhaustive n expr ~output:"out" ~width:2 with
  | Ok () -> Alcotest.fail "should have found a mismatch"
  | Error m ->
    checkb "mismatch values differ" true (m.expected <> m.actual)

let test_equiv_exhaustive_ok () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "x" ~width:3 in
  Netlist.set_output n "out" bits;
  let expr = Dp_expr.Parse.expr "x" in
  checkb "identity ok" true
    (Equiv.check_exhaustive n expr ~output:"out" ~width:3 = Ok ())

let test_equiv_exhaustive_guard () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "x" ~width:30 in
  Netlist.set_output n "out" bits;
  Alcotest.check_raises "too wide"
    (Invalid_argument "Equiv.check_exhaustive: input space too large") (fun () ->
      ignore
        (Equiv.check_exhaustive n (Dp_expr.Parse.expr "x") ~output:"out" ~width:30))

let test_equiv_random_deterministic () =
  let d = Dp_designs.Catalog.poly_mixed in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let a = Equiv.check_random ~seed:11 ~trials:50 r.netlist d.expr ~output:"out" ~width:d.width in
  let b = Equiv.check_random ~seed:11 ~trials:50 r.netlist d.expr ~output:"out" ~width:d.width in
  checkb "same outcome under same seed" true (a = b);
  checkb "passes" true (a = Ok ())

let test_testbench_structure () =
  let d = Dp_designs.Catalog.x2 in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let tb = Testbench.emit ~module_name:"sq" ~vectors:8 r.netlist in
  List.iter
    (fun needle -> checkb needle true (contains ~needle tb))
    [
      "module sq_tb;";
      "sq dut (.x(x), .out(out));";
      "reg [2:0] x;";
      "wire [5:0] out;";
      "$finish;";
      "PASS: 8 vectors";
    ]

let test_testbench_expected_values_correct () =
  (* the expected constants embedded in the testbench must equal the
     simulator's outputs; spot-check by re-deriving one vector *)
  let d = Dp_designs.Catalog.x2 in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let tb = Testbench.emit ~seed:1 ~vectors:4 r.netlist in
  (* every x assignment v must be followed by a check against (v*v) mod 64 *)
  let lines = String.split_on_char '
' tb in
  let rec scan = function
    | [] -> ()
    | l :: rest ->
      (match
         if contains ~needle:"x = 3'd" l then
           let idx = String.index l 'd' in
           int_of_string_opt (String.trim (String.sub l (idx + 1) (String.length l - idx - 2)))
         else None
       with
      | Some v ->
        let expected = Printf.sprintf "6'd%d" (v * v land 63) in
        let upcoming = String.concat "\n" (List.filteri (fun i _ -> i < 6) rest) in
        checkb (Printf.sprintf "x=%d checks %s" v expected) true
          (contains ~needle:expected upcoming)
      | None -> ());
      scan rest
  in
  scan lines;
  (* 48-bit inputs, over two 64-vector sweeps: every expected constant is
     the expression's value under the vector's own assignment, and the
     stimulus reaches past 2^30 *)
  let env = Dp_expr.Env.of_widths [ ("x", 48); ("y", 48) ] in
  let expr = Dp_expr.Parse.expr "x + 3*y" in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot env expr ~width:50 in
  let tb = Testbench.emit ~seed:5 ~vectors:70 r.netlist in
  let alist = ref [] and checked = ref 0 and widest = ref 0 in
  List.iter
    (fun l ->
      match Scanf.sscanf l " if (out !== %d'd%d) begin" (fun w e -> (w, e)) with
      | w, e ->
        checki "output width" 50 w;
        checki
          (Printf.sprintf "vector %d" !checked)
          (Dp_expr.Eval.eval_mod ~width:50 (fun v -> List.assoc v !alist) expr)
          e;
        incr checked
      | exception (Scanf.Scan_failure _ | End_of_file) -> (
        match Scanf.sscanf l " %[xy] = 48'd%d;" (fun v x -> (v, x)) with
        | v, x ->
          alist := (v, x) :: List.remove_assoc v !alist;
          widest := Int.max !widest x
        | exception (Scanf.Scan_failure _ | End_of_file) -> ()))
    (String.split_on_char '\n' tb);
  checki "every vector checked" 70 !checked;
  checkb "stimulus past 2^30" true (!widest >= 1 lsl 30)

let test_testbench_with_dut_concatenates () =
  let d = Dp_designs.Catalog.x2 in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let all = Testbench.emit_with_dut ~module_name:"m" ~vectors:4 r.netlist in
  checkb "dut" true (contains ~needle:"module m (" all);
  checkb "tb" true (contains ~needle:"module m_tb;" all)

let test_mismatch_printer () =
  let m = { Equiv.assignment = [ ("x", 3) ]; expected = 7; actual = 5 } in
  let s = Fmt.str "%a" Equiv.pp_mismatch m in
  checkb "mentions values" true
    (String.length s > 0
    && Option.is_some (String.index_opt s '7')
    && Option.is_some (String.index_opt s '5'))

let suite =
  [
    case "bus value" test_bus_value;
    case "gate evaluation" test_run_gates;
    case "equivalence detects a planted bug" test_equiv_detects_mismatch;
    case "exhaustive equivalence on identity" test_equiv_exhaustive_ok;
    case "exhaustive equivalence guards input size" test_equiv_exhaustive_guard;
    case "random equivalence is seeded/deterministic" test_equiv_random_deterministic;
    case "testbench: structure" test_testbench_structure;
    case "testbench: expected values correct" test_testbench_expected_values_correct;
    case "testbench: emit_with_dut" test_testbench_with_dut_concatenates;
    case "mismatch printer" test_mismatch_printer;
  ]
