open Dp_netlist
open Dp_adders
open Helpers

let exhaustive_add kind ~width ~cin_value () =
  let n = mk_netlist () in
  let a = Netlist.add_input n "a" ~width in
  let b = Netlist.add_input n "b" ~width in
  let cin = if cin_value then Some (Netlist.const n true) else None in
  let sums = Adder.build ?cin kind n ~a ~b in
  Netlist.set_output n "out" sums;
  let mask = Dp_expr.Eval.mask width in
  for va = 0 to mask do
    for vb = 0 to mask do
      let assign name = if name = "a" then va else vb in
      let got = Simulator_reference.eval_output n ~assign "out" in
      let expected = (va + vb + Bool.to_int cin_value) land mask in
      if got <> expected then
        Alcotest.failf "%s: %d + %d + %d: expected %d got %d" (Adder.name kind)
          va vb (Bool.to_int cin_value) expected got
    done
  done

let random_add kind ~width () =
  let n = mk_netlist () in
  let a = Netlist.add_input n "a" ~width in
  let b = Netlist.add_input n "b" ~width in
  let sums = Adder.build kind n ~a ~b in
  Netlist.set_output n "out" sums;
  let rng = Random.State.make [| 5; width |] in
  let mask = Dp_expr.Eval.mask width in
  for _ = 1 to 100 do
    let va = Random.State.int rng (mask + 1) in
    let vb = Random.State.int rng (mask + 1) in
    let assign name = if name = "a" then va else vb in
    checki
      (Printf.sprintf "%s %d+%d" (Adder.name kind) va vb)
      ((va + vb) land mask)
      (Simulator_reference.eval_output n ~assign "out")
  done

let test_all_kinds_exhaustive_4bit () =
  List.iter (fun kind -> exhaustive_add kind ~width:4 ~cin_value:false ()) Adder.all

let test_all_kinds_exhaustive_with_cin () =
  List.iter (fun kind -> exhaustive_add kind ~width:4 ~cin_value:true ()) Adder.all

let test_all_kinds_exhaustive_5bit () =
  (* 5 is not a multiple of the CLA/carry-select block size *)
  List.iter (fun kind -> exhaustive_add kind ~width:5 ~cin_value:false ()) Adder.all

let test_all_kinds_random_16bit () =
  List.iter (fun kind -> random_add kind ~width:16 ()) Adder.all

let test_width_one () =
  List.iter (fun kind -> exhaustive_add kind ~width:1 ~cin_value:true ()) Adder.all

let test_width_mismatch_raises () =
  let n = mk_netlist () in
  let a = Netlist.add_input n "a" ~width:4 in
  let b = Netlist.add_input n "b" ~width:3 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Ripple.build: width mismatch")
    (fun () -> ignore (Adder.build Adder.Ripple n ~a ~b))

let test_fast_adders_shallower_than_ripple () =
  let depth kind =
    let n = mk_netlist () in
    let a = Netlist.add_input n "a" ~width:32 in
    let b = Netlist.add_input n "b" ~width:32 in
    let sums = Adder.build kind n ~a ~b in
    Netlist.set_output n "out" sums;
    Dp_timing.Sta.design_delay n
  in
  let ripple = depth Adder.Ripple in
  List.iter
    (fun kind ->
      let d = depth kind in
      checkb
        (Printf.sprintf "%s (%.2f) faster than ripple (%.2f)" (Adder.name kind) d ripple)
        true (d < ripple))
    [ Adder.Cla; Adder.Carry_select; Adder.Kogge_stone ]

let test_kogge_stone_fastest_at_64 () =
  let delay kind =
    let n = mk_netlist () in
    let a = Netlist.add_input n "a" ~width:48 in
    let b = Netlist.add_input n "b" ~width:48 in
    let sums = Adder.build kind n ~a ~b in
    Netlist.set_output n "out" sums;
    Dp_timing.Sta.design_delay n
  in
  checkb "ks < cla" true (delay Adder.Kogge_stone < delay Adder.Cla)

let test_ripple_smallest_area () =
  let area kind =
    let n = mk_netlist () in
    let a = Netlist.add_input n "a" ~width:16 in
    let b = Netlist.add_input n "b" ~width:16 in
    let sums = Adder.build kind n ~a ~b in
    Netlist.set_output n "out" sums;
    Netlist.area n
  in
  let ripple = area Adder.Ripple in
  List.iter
    (fun kind ->
      checkb (Adder.name kind) true (area kind >= ripple))
    [ Adder.Cla; Adder.Carry_select; Adder.Kogge_stone ]

let test_build_rows_pads () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:2 in
  let row_a = [| Some bits.(0); None |] in
  let row_b = [| Some bits.(1) |] in
  let sums = Adder.build_rows Adder.Ripple n ~width:4 (row_a, row_b) in
  Netlist.set_output n "out" sums;
  checki "width 4" 4 (Array.length sums);
  for v = 0 to 3 do
    let expected = ((v land 1) + ((v lsr 1) land 1)) land 15 in
    checki "padded add" expected (Simulator_reference.eval_output n ~assign:(fun _ -> v) "out")
  done

let test_adder_names_roundtrip () =
  List.iter
    (fun kind ->
      match Adder.of_name (Adder.name kind) with
      | Some k -> checkb (Adder.name kind) true (k = kind)
      | None -> Alcotest.failf "name %s not parsed" (Adder.name kind))
    Adder.all;
  checkb "unknown" true (Adder.of_name "zzz" = None)

let suite =
  [
    case "all kinds: exhaustive 4-bit" test_all_kinds_exhaustive_4bit;
    case "all kinds: exhaustive 4-bit with carry-in" test_all_kinds_exhaustive_with_cin;
    case "all kinds: exhaustive 5-bit (odd block)" test_all_kinds_exhaustive_5bit;
    case "all kinds: random 16-bit" test_all_kinds_random_16bit;
    case "all kinds: width 1" test_width_one;
    case "width mismatch raises" test_width_mismatch_raises;
    case "fast adders beat ripple at 32 bits" test_fast_adders_shallower_than_ripple;
    case "kogge-stone beats CLA at 48 bits" test_kogge_stone_fastest_at_64;
    case "ripple has the smallest area" test_ripple_smallest_area;
    case "build_rows pads with zeros" test_build_rows_pads;
    case "adder names roundtrip" test_adder_names_roundtrip;
  ]
