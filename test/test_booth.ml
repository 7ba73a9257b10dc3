open Dp_netlist
open Dp_bitmatrix
open Dp_expr
open Helpers

(* Exhaustive check that the Booth rows denote the product: sum the matrix
   under simulation for every operand pair. *)
let booth_denotes ?(negate = false) ?(shift = 0) ~wx ~wy ~width () =
  let n = mk_netlist () in
  let x = Netlist.add_input n "x" ~width:wx in
  let y = Netlist.add_input n "y" ~width:wy in
  let m = Matrix.create ~max_width:width () in
  let correction =
    Booth.lower_product ~negate ~shift n m ~multiplicand:x ~multiplier:y
  in
  let mask = Eval.mask width in
  for vx = 0 to Eval.mask wx do
    for vy = 0 to Eval.mask wy do
      let assign name = if name = "x" then vx else vy in
      let values = Simulator_reference.run n ~assign in
      let got = (Matrix.value m values + correction) land mask in
      let sign = if negate then -1 else 1 in
      let expected = sign * vx * vy * (1 lsl shift) land mask in
      if got <> expected then
        Alcotest.failf "booth %dx%d: %d*%d: expected %d got %d" wx wy vx vy
          expected got
    done
  done

let test_booth_4x4 = booth_denotes ~wx:4 ~wy:4 ~width:8
let test_booth_5x3 = booth_denotes ~wx:5 ~wy:3 ~width:8
let test_booth_3x5 = booth_denotes ~wx:3 ~wy:5 ~width:8
let test_booth_1x4 = booth_denotes ~wx:1 ~wy:4 ~width:5
let test_booth_4x1 = booth_denotes ~wx:4 ~wy:1 ~width:5
let test_booth_negated = booth_denotes ~negate:true ~wx:4 ~wy:4 ~width:8
let test_booth_shifted = booth_denotes ~shift:2 ~wx:3 ~wy:3 ~width:9
let test_booth_truncated = booth_denotes ~wx:4 ~wy:4 ~width:5

let test_digit_count () =
  checki "4-bit" 3 (Booth.digit_count 4);
  checki "5-bit" 3 (Booth.digit_count 5);
  checki "16-bit" 9 (Booth.digit_count 16);
  checki "1-bit" 1 (Booth.digit_count 1)

let booth_config =
  { Lower.default_config with Lower.multiplier_style = Lower.Booth }

let test_flow_with_booth () =
  (* end-to-end: FA_AOT over Booth-lowered products stays equivalent *)
  let env = Env.of_widths [ ("a", 4); ("b", 4); ("c", 4); ("d", 4) ] in
  let expr = Parse.expr "a*c - b*d" in
  List.iter
    (fun strategy ->
      let r = Dp_flow.Synth.run ~lower_config:booth_config strategy env expr ~width:9 in
      match
        Dp_sim.Equiv.check_exhaustive r.netlist expr ~output:"out" ~width:9
      with
      | Ok () -> ()
      | Error m ->
        Alcotest.failf "%s: %a" (Dp_flow.Strategy.name strategy)
          Dp_sim.Equiv.pp_mismatch m)
    [ Dp_flow.Strategy.Fa_aot; Dp_flow.Strategy.Fa_alp; Dp_flow.Strategy.Wallace ]

let test_booth_ineligible_fall_back () =
  (* squares, scaled products and signed operands must fall back to the
     AND-array path and stay correct *)
  let env =
    Env.empty
    |> Env.add_uniform "x" ~width:4
    |> Env.add_uniform "y" ~width:4
    |> Env.add_uniform "s" ~width:3 ~signed:true
  in
  let expr = Parse.expr "x^2 + 3*x*y + s*y" in
  let r = Dp_flow.Synth.run ~lower_config:booth_config Dp_flow.Strategy.Fa_aot env expr ~width:10 in
  match
    Dp_sim.Equiv.check_exhaustive
      ~signed:(fun v -> v = "s")
      r.netlist expr ~output:"out" ~width:10
  with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%a" Dp_sim.Equiv.pp_mismatch m

let test_booth_fewer_addends_wide () =
  (* at 16x16 Booth roughly halves the matrix population *)
  let env = Env.of_widths [ ("x", 16); ("y", 16) ] in
  let expr = Parse.expr "x*y" in
  let count config =
    let n = mk_netlist () in
    let m = Lower.lower ~config n env expr ~width:32 in
    Matrix.total_addends m
  in
  let plain = count Lower.default_config in
  let booth = count booth_config in
  checkb
    (Printf.sprintf "booth %d < 0.7 * and-array %d" booth plain)
    true
    (float_of_int booth < 0.7 *. float_of_int plain)

let test_booth_empty_operand_raises () =
  let n = mk_netlist () in
  let x = Netlist.add_input n "x" ~width:2 in
  let m = Matrix.create ~max_width:4 () in
  Alcotest.check_raises "empty" (Invalid_argument "Booth.lower_product: empty operand")
    (fun () -> ignore (Booth.lower_product n m ~multiplicand:x ~multiplier:[||]))

let suite =
  [
    case "booth 4x4 exhaustive" test_booth_4x4;
    case "booth 5x3 exhaustive" test_booth_5x3;
    case "booth 3x5 exhaustive" test_booth_3x5;
    case "booth 1x4 exhaustive" test_booth_1x4;
    case "booth 4x1 exhaustive" test_booth_4x1;
    case "booth negated product" test_booth_negated;
    case "booth shifted product" test_booth_shifted;
    case "booth truncated matrix" test_booth_truncated;
    case "digit counts" test_digit_count;
    case "flow with booth products (exhaustive)" test_flow_with_booth;
    case "ineligible products fall back to AND-array" test_booth_ineligible_fall_back;
    case "booth halves the 16x16 matrix" test_booth_fewer_addends_wide;
    case "empty operand raises" test_booth_empty_operand_raises;
  ]
