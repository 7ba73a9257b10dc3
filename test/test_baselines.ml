open Dp_netlist
open Dp_bitmatrix
open Dp_baselines
open Dp_expr
open Helpers

(* ------------------------------------------------------------------ *)
(* Rows *)

let test_rows_packing () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:5 in
  let m = Matrix.create ~max_width:4 () in
  Matrix.add m ~weight:0 bits.(0);
  Matrix.add m ~weight:0 bits.(1);
  Matrix.add m ~weight:0 bits.(2);
  Matrix.add m ~weight:1 bits.(3);
  Matrix.add m ~weight:2 bits.(4);
  let rows = Rows.of_matrix ~width:4 m in
  checki "3 rows (tallest column)" 3 (List.length rows);
  (* every row has at most one addend per weight, and the union is the
     original matrix *)
  let total = List.fold_left (fun acc r -> acc + Rows.bit_count r) 0 rows in
  checki "all addends packed" 5 total

let test_rows_roundtrip () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:6 in
  let m = Matrix.create ~max_width:3 () in
  Array.iteri (fun i b -> Matrix.add m ~weight:(i mod 3) b) bits;
  let rows = Rows.of_matrix ~width:3 m in
  let back = Rows.to_matrix ~width:3 rows in
  for j = 0 to 2 do
    checki
      (Printf.sprintf "col %d" j)
      (List.length (Matrix.column m j))
      (List.length (Matrix.column back j))
  done

let test_rows_ready_time () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:2 ~arrival:[| 1.5; 4.5 |] in
  let row = [| Some bits.(0); Some bits.(1); None |] in
  checkf "latest bit" 4.5 (Rows.ready_time n row);
  checkf "empty row" 0.0 (Rows.ready_time n [| None |])

(* ------------------------------------------------------------------ *)
(* CSA_OPT *)

let test_csa_opt_functional () =
  (* sum of 5 words via the word-level CSA tree + final adder must equal
     the arithmetic sum mod 2^width *)
  let width = 6 in
  let n = mk_netlist () in
  let names = [ "a"; "b"; "c"; "d"; "e" ] in
  let rows =
    List.map
      (fun name ->
        let bits = Netlist.add_input n name ~width:4 in
        Array.init width (fun i -> if i < 4 then Some bits.(i) else None))
      names
  in
  let final = Csa_opt.allocate n ~width rows in
  let out = Dp_adders.Adder.build_rows Dp_adders.Adder.Ripple n ~width final in
  Netlist.set_output n "out" out;
  let rng = Random.State.make [| 9 |] in
  for _ = 1 to 200 do
    let alist = List.map (fun v -> (v, Random.State.int rng 16)) names in
    let expected =
      List.fold_left (fun acc (_, v) -> acc + v) 0 alist land Eval.mask width
    in
    checki "sum" expected
      (Simulator_reference.eval_output n ~assign:(assign_of alist) "out")
  done

let test_csa_word_level_structure () =
  (* one 3:2 CSA step on three full rows instantiates one FA/HA per
     populated column — a whole word-level module *)
  let width = 4 in
  let n = mk_netlist () in
  let mk name =
    let bits = Netlist.add_input n name ~width in
    Array.map (fun b -> Some b) bits
  in
  let r1 = mk "a" and r2 = mk "b" and r3 = mk "c" in
  let before = Netlist.cell_count n in
  let _sum, _carry = Csa_opt.csa n ~width r1 r2 r3 in
  checki "width cells" width (Netlist.cell_count n - before)

let test_csa_opt_picks_earliest_rows () =
  let width = 2 in
  let n = mk_netlist () in
  let mk name arrival =
    let bits = Netlist.add_input n name ~width ~arrival:(Array.make width arrival) in
    Array.map (fun b -> Some b) bits
  in
  let r_late = mk "late" 9.0 in
  let r1 = mk "e1" 1.0 and r2 = mk "e2" 1.0 and r3 = mk "e3" 1.0 in
  let _final = Csa_opt.allocate n ~width [ r_late; r1; r2; r3 ] in
  (* the first CSA must combine the three early rows: no input of the
     first-created cell can be the late operand *)
  let first = Netlist.cell n 0 in
  Array.iter
    (fun input ->
      checkb "first CSA avoids the late row" true
        (Netlist.arrival n input < 9.0 -. 1e-9))
    first.inputs

(* ------------------------------------------------------------------ *)
(* Conventional *)

let test_expand_pow () =
  let e = Conventional.expand_pow (Parse.expr "x^5") in
  let assign = assign_of [ ("x", 3) ] in
  checki "value" 243 (Eval.eval assign e);
  let rec no_pow = function
    | Ast.Pow _ -> false
    | Ast.Var _ | Ast.Const _ -> true
    | Ast.Add (a, b) | Ast.Sub (a, b) | Ast.Mul (a, b) -> no_pow a && no_pow b
    | Ast.Neg a -> no_pow a
  in
  checkb "no pow nodes" true (no_pow e)

let test_flatten_sum () =
  let terms = Conventional.flatten_sum (Parse.expr "a - (b - c) + d") in
  checki "4 terms" 4 (List.length terms);
  let signs = List.map fst terms in
  checki "positives" 3 (List.length (List.filter (fun s -> s > 0) signs));
  checki "negatives" 1 (List.length (List.filter (fun s -> s < 0) signs))

let conventional_equiv ?config expr_s widths width () =
  let env = Env.of_widths widths in
  let expr = Parse.expr expr_s in
  let n = mk_netlist () in
  let out = Conventional.synthesize ?config n env expr ~width in
  Netlist.set_output n "out" out;
  match Dp_sim.Equiv.check_random ~trials:300 n expr ~output:"out" ~width with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %a" expr_s Dp_sim.Equiv.pp_mismatch m

let test_conventional_add = conventional_equiv "x + y" [ ("x", 5); ("y", 5) ] 6
let test_conventional_sub = conventional_equiv "x - y" [ ("x", 5); ("y", 5) ] 6
let test_conventional_mul = conventional_equiv "x*y" [ ("x", 5); ("y", 5) ] 10
let test_conventional_neg = conventional_equiv "-x + y*z" [ ("x", 4); ("y", 4); ("z", 4) ] 9

(* A node whose range passes 2^62 ((2^32 + 977) * hi here) must be built
   at the full output width; a wrapped range once sized it at 42 bits. *)
let test_conventional_secp_fold () =
  let d = Dp_designs.Crypto.secp_fold in
  List.iter
    (fun adder ->
      let r =
        Dp_flow.Synth.run ~adder Dp_flow.Strategy.Conventional d.env d.expr
          ~width:d.width
      in
      match
        Dp_sim.Equiv.check_random ~trials:300 r.netlist d.expr ~output:"out"
          ~width:d.width
      with
      | Ok () -> ()
      | Error m ->
        Alcotest.failf "%s: %a" (Dp_adders.Adder.name adder)
          Dp_sim.Equiv.pp_mismatch m)
    Dp_adders.Adder.all

let test_conventional_poly =
  conventional_equiv "x^2 + 2*x*y + y^2 + 2*x + 2*y + 1" [ ("x", 4); ("y", 4) ] 10

let test_conventional_mixed =
  conventional_equiv "x + y - z + x*y - y*z + 10" [ ("x", 4); ("y", 4); ("z", 4) ] 10

let test_conventional_shift_add_multiplier =
  conventional_equiv
    ~config:
      {
        Conventional.adder = Dp_adders.Adder.Ripple;
        multiplier = Conventional.Shift_add;
        balance = false;
      }
    "x*y + z" [ ("x", 4); ("y", 4); ("z", 4) ] 9

let test_conventional_unbalanced =
  conventional_equiv
    ~config:
      {
        Conventional.adder = Dp_adders.Adder.Cla;
        multiplier = Conventional.Wallace_cpa;
        balance = false;
      }
    "a + b + c + d - e" [ ("a", 4); ("b", 4); ("c", 4); ("d", 4); ("e", 4) ] 7

let test_conventional_resource_sharing () =
  (* x^4 expands to (x*x)*(x*x): the squaring module must be built once *)
  let env = Env.of_widths [ ("x", 4) ] in
  let count expr_s =
    let n = mk_netlist () in
    let out = Conventional.synthesize n env (Parse.expr expr_s) ~width:16 in
    Netlist.set_output n "out" out;
    Netlist.cell_count n
  in
  let pow4 = count "x^4" in
  let explicit_shared = count "(x*x)*(x*x)" in
  checki "same size (shared)" explicit_shared pow4

let test_conventional_balancing_helps_skew () =
  (* with one very late input, balancing should not chain it first *)
  let env =
    Env.empty
    |> Env.add_uniform "late" ~width:8 ~arrival:5.0
    |> Env.add_uniform "a" ~width:8
    |> Env.add_uniform "b" ~width:8
    |> Env.add_uniform "c" ~width:8
  in
  let expr = Parse.expr "late + a + b + c" in
  let delay balance =
    let n = mk_netlist () in
    let config = { Conventional.default_config with balance } in
    let out = Conventional.synthesize ~config n env expr ~width:10 in
    Netlist.set_output n "out" out;
    Dp_timing.Sta.design_delay n
  in
  checkb "balanced <= naive" true (delay true <= delay false +. 1e-9)

let suite =
  [
    case "rows: first-fit packing" test_rows_packing;
    case "rows: matrix roundtrip" test_rows_roundtrip;
    case "rows: ready time" test_rows_ready_time;
    case "csa_opt: functional (5 words)" test_csa_opt_functional;
    case "csa_opt: word-level module structure" test_csa_word_level_structure;
    case "csa_opt: earliest-ready selection" test_csa_opt_picks_earliest_rows;
    case "conventional: pow expansion" test_expand_pow;
    case "conventional: sum flattening" test_flatten_sum;
    case "conventional: add" test_conventional_add;
    case "conventional: sub" test_conventional_sub;
    case "conventional: mul" test_conventional_mul;
    case "conventional: neg" test_conventional_neg;
    case "conventional: binomial poly" test_conventional_poly;
    case "conventional: mixed poly" test_conventional_mixed;
    case "conventional: shift-add multiplier" test_conventional_shift_add_multiplier;
    case "conventional: unbalanced config" test_conventional_unbalanced;
    case "conventional: resource sharing" test_conventional_resource_sharing;
    case "conventional: balancing helps skewed arrivals" test_conventional_balancing_helps_skew;
    case "conventional: Crypto-SecpFold under every adder" test_conventional_secp_fold;
  ]
