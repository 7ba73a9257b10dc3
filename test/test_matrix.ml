open Dp_netlist
open Dp_bitmatrix
open Dp_expr
open Helpers

(* ------------------------------------------------------------------ *)
(* Matrix data structure *)

let test_matrix_basic () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:3 in
  let m = Matrix.create () in
  Matrix.add m ~weight:0 bits.(0);
  Matrix.add m ~weight:0 bits.(1);
  Matrix.add m ~weight:2 bits.(2);
  checki "width" 3 (Matrix.width m);
  checki "height" 2 (Matrix.height m);
  checki "total" 3 (Matrix.total_addends m);
  checki "col0" 2 (List.length (Matrix.column m 0));
  checki "col1" 0 (List.length (Matrix.column m 1));
  checkb "not reduced with 3 in col" true (Matrix.is_reduced m)

let test_matrix_truncation () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:2 in
  let m = Matrix.create ~max_width:4 () in
  Matrix.add m ~weight:3 bits.(0);
  Matrix.add m ~weight:4 bits.(1);
  (* dropped *)
  checki "width capped" 4 (Matrix.width m);
  checki "only one addend" 1 (Matrix.total_addends m)

let test_matrix_growth () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:1 in
  let m = Matrix.create () in
  Matrix.add m ~weight:40 bits.(0);
  checki "width 41" 41 (Matrix.width m)

let test_matrix_operand_rows () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:4 in
  let m = Matrix.create () in
  Matrix.add m ~weight:0 bits.(0);
  Matrix.add m ~weight:0 bits.(1);
  Matrix.add m ~weight:1 bits.(2);
  let a, b = Matrix.operand_rows m in
  checkb "a0" true (a.(0) = Some bits.(0));
  checkb "b0" true (b.(0) = Some bits.(1));
  checkb "a1" true (a.(1) = Some bits.(2));
  checkb "b1 empty" true (b.(1) = None)

let test_matrix_operand_rows_rejects_tall () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:3 in
  let m = Matrix.create () in
  Array.iter (fun b -> Matrix.add m ~weight:0 b) bits;
  Alcotest.check_raises "3 addends"
    (Invalid_argument "Matrix.operand_rows: matrix is not reduced") (fun () ->
      ignore (Matrix.operand_rows m))

let test_matrix_negative_weight () =
  let m = Matrix.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Matrix.add: negative weight")
    (fun () -> Matrix.add m ~weight:(-1) 0)

(* ------------------------------------------------------------------ *)
(* Lowering: the matrix must denote the expression mod 2^W for every
   assignment. *)

let matrix_denotes ?config expr_s widths width () =
  let env = Env.of_widths widths in
  let expr = Parse.expr expr_s in
  let n = mk_netlist () in
  let m = Lower.lower ?config n env expr ~width in
  let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 widths in
  let trials = min (1 lsl total_bits) 256 in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to trials do
    let alist = List.map (fun (v, w) -> (v, Random.State.int rng (1 lsl w))) widths in
    let values = Simulator_reference.run n ~assign:(assign_of alist) in
    let expected = Eval.eval_mod ~width (assign_of alist) expr in
    let got = Matrix.value m values land Eval.mask width in
    if got <> expected then
      Alcotest.failf "matrix of %s: expected %d got %d under %s" expr_s expected
        got
        (String.concat "," (List.map (fun (v, x) -> Printf.sprintf "%s=%d" v x) alist))
  done

let test_lower_add = matrix_denotes "x + y" [ ("x", 4); ("y", 4) ] 5
let test_lower_sub = matrix_denotes "x - y" [ ("x", 4); ("y", 4) ] 5
let test_lower_mul = matrix_denotes "x*y" [ ("x", 4); ("y", 4) ] 8
let test_lower_square = matrix_denotes "x^2" [ ("x", 3) ] 6
let test_lower_cube = matrix_denotes "x^3" [ ("x", 4) ] 12

let test_lower_mixed =
  matrix_denotes "x + y - z + x*y - y*z + 10" [ ("x", 3); ("y", 3); ("z", 3) ] 9

let test_lower_binomial =
  matrix_denotes "x^2 + 2*x*y + y^2 + 2*x + 2*y + 1" [ ("x", 3); ("y", 3) ] 8

let test_lower_negative_total = matrix_denotes "0 - x" [ ("x", 4) ] 6
let test_lower_const_only = matrix_denotes "42 - 7" [ ("x", 1) ] 6

let test_lower_truncated_narrow =
  (* output narrower than the natural width: modular wrap must hold *)
  matrix_denotes "x*y + 100" [ ("x", 4); ("y", 4) ] 4

let test_lower_binary_recoding =
  matrix_denotes
    ~config:{ Lower.default_config with Lower.recoding = Lower.Binary }
    "x + y - z + x*y - y*z + 10"
    [ ("x", 3); ("y", 3); ("z", 3) ]
    9

(* ------------------------------------------------------------------ *)
(* Lowering structure *)

let and_count n =
  let count = ref 0 in
  for id = 0 to Netlist.cell_count n - 1 do
    match Netlist.cell_kind n id with
    | Dp_tech.Cell_kind.And_n _ -> incr count
    | Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha | Dp_tech.Cell_kind.C42
    | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73
    | Dp_tech.Cell_kind.Or_n _ | Dp_tech.Cell_kind.Xor_n _
    | Dp_tech.Cell_kind.Not | Dp_tech.Cell_kind.Buf -> ()
  done;
  !count

let test_squarer_folding () =
  (* 3-bit x^2: supports {x0}, {x1}, {x2} (diagonal) and {x0x1}, {x0x2},
     {x1x2} (folded symmetric pairs) — exactly 6 addends, 3 AND gates. *)
  let env = Env.of_widths [ ("x", 3) ] in
  let n = mk_netlist () in
  let m = Lower.lower n env (Parse.expr "x^2") ~width:6 in
  checki "6 addends" 6 (Matrix.total_addends m);
  checki "3 AND gates" 3 (and_count n)

let test_constant_presummation () =
  (* 3 + 7 + 6 = 16: a single constant addend in column 4 *)
  let env = Env.of_widths [ ("x", 2) ] in
  let n = mk_netlist () in
  let m = Lower.lower n env (Parse.expr "x + 3 + 7 + 6") ~width:6 in
  let const_addends =
    List.concat_map
      (fun j ->
        List.filter (fun net -> Netlist.const_value n net <> None) (Matrix.column m j))
      [ 0; 1; 2; 3; 4; 5 ]
  in
  checki "single constant addend" 1 (List.length const_addends);
  checki "in column 4" 1
    (List.length
       (List.filter (fun net -> Netlist.const_value n net <> None) (Matrix.column m 4)))

let test_csd_fewer_addends_than_binary () =
  let env = Env.of_widths [ ("x", 8) ] in
  let count recoding =
    let n = mk_netlist () in
    let config = { Lower.default_config with Lower.recoding } in
    let m = Lower.lower ~config n env (Parse.expr "255*x") ~width:16 in
    Matrix.total_addends m
  in
  let csd = count Lower.Csd in
  let binary = count Lower.Binary in
  checkb (Printf.sprintf "csd %d < binary %d" csd binary) true (csd < binary)

let test_partial_products_shared () =
  (* x*y + 2*x*y: the same AND gates serve both terms (coefficient 3 total,
     CSD = 4 - 1) *)
  let env = Env.of_widths [ ("x", 2); ("y", 2) ] in
  let n = mk_netlist () in
  ignore (Lower.lower n env (Parse.expr "x*y + 2*x*y") ~width:6);
  checki "4 AND gates (one per bit pair)" 4 (and_count n)

let test_lower_bad_width () =
  let env = Env.of_widths [ ("x", 2) ] in
  Alcotest.check_raises "width 0" (Invalid_argument "Lower.lower: width out of [1,62]")
    (fun () -> ignore (Lower.lower (mk_netlist ()) env (Parse.expr "x") ~width:0))

let test_lower_unbound_var () =
  Alcotest.check_raises "unbound"
    (Invalid_argument "Env.check_covers: x has no binding") (fun () ->
      ignore (Lower.lower (mk_netlist ()) Env.empty (Parse.expr "x") ~width:4))

let test_input_profile_carried () =
  let env =
    Env.add "x" ~width:2 ~arrival:[| 0.5; 1.5 |] ~prob:[| 0.1; 0.9 |] Env.empty
  in
  let n = mk_netlist () in
  let m = Lower.lower n env (Parse.expr "x") ~width:2 in
  let col0 = Matrix.column m 0 in
  checki "one addend" 1 (List.length col0);
  (match col0 with
  | [ net ] ->
    checkf "arrival" 0.5 (Netlist.arrival n net);
    checkf "prob" 0.1 (Netlist.prob n net)
  | _ -> Alcotest.fail "expected one addend");
  match Matrix.column m 1 with
  | [ net ] -> checkf "bit1 arrival" 1.5 (Netlist.arrival n net)
  | _ -> Alcotest.fail "expected one addend in column 1"

let suite =
  [
    case "matrix: add/column/height" test_matrix_basic;
    case "matrix: modular truncation" test_matrix_truncation;
    case "matrix: growth" test_matrix_growth;
    case "matrix: operand rows" test_matrix_operand_rows;
    case "matrix: operand rows reject unreduced" test_matrix_operand_rows_rejects_tall;
    case "matrix: negative weight rejected" test_matrix_negative_weight;
    case "lower: x + y" test_lower_add;
    case "lower: x - y (two's complement)" test_lower_sub;
    case "lower: x*y" test_lower_mul;
    case "lower: x^2" test_lower_square;
    case "lower: x^3" test_lower_cube;
    case "lower: mixed poly with subtractions" test_lower_mixed;
    case "lower: binomial square" test_lower_binomial;
    case "lower: pure negation" test_lower_negative_total;
    case "lower: constant expression" test_lower_const_only;
    case "lower: truncated output width" test_lower_truncated_narrow;
    case "lower: binary recoding variant" test_lower_binary_recoding;
    case "lower: squarer folding (x_i x_i = x_i)" test_squarer_folding;
    case "lower: constants pre-summed" test_constant_presummation;
    case "lower: CSD reduces addends vs binary" test_csd_fewer_addends_than_binary;
    case "lower: partial products shared across terms" test_partial_products_shared;
    case "lower: bad width rejected" test_lower_bad_width;
    case "lower: unbound variable rejected" test_lower_unbound_var;
    case "lower: input arrival/prob profiles carried" test_input_profile_carried;
  ]
