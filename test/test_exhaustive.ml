open Dp_netlist
open Dp_bitmatrix
open Dp_core
open Helpers

let unit = Dp_tech.Tech.unit_delay

let random_small_matrix rng n ~cols ~max_height ~budget =
  let matrix = Matrix.create () in
  let remaining = ref budget in
  for j = 0 to cols - 1 do
    let h = min !remaining (1 + Random.State.int rng max_height) in
    remaining := !remaining - h;
    for i = 0 to h - 1 do
      let name = Printf.sprintf "e%d_%d" j i in
      let arrival = [| float_of_int (Random.State.int rng 9) |] in
      let bit = (Netlist.add_input n name ~width:1 ~arrival).(0) in
      Matrix.add matrix ~weight:j bit
    done
  done;
  matrix

let matrix_max n m =
  List.fold_left
    (fun acc j ->
      List.fold_left
        (fun acc net -> Float.max acc (Netlist.arrival n net))
        acc (Matrix.column m j))
    neg_infinity
    (List.init (Matrix.width m) Fun.id)

let test_replay_achieves_predicted_optimum () =
  let rng = Random.State.make [| 808 |] in
  for _ = 1 to 8 do
    let n = mk_netlist ~tech:unit () in
    let m = random_small_matrix rng n ~cols:3 ~max_height:3 ~budget:7 in
    let predicted = Exhaustive.optimal_arrival n m in
    Exhaustive.allocate n m;
    checkb "reduced" true (Matrix.is_reduced m);
    checkf "replayed = predicted" predicted (matrix_max n m)
  done

let test_never_worse_than_fa_aot () =
  let rng = Random.State.make [| 909 |] in
  for _ = 1 to 10 do
    let seed = Random.State.int rng 100000 in
    let reduced allocate =
      let rng' = Random.State.make [| seed |] in
      let n = mk_netlist ~tech:unit () in
      let m = random_small_matrix rng' n ~cols:3 ~max_height:3 ~budget:8 in
      allocate n m;
      matrix_max n m
    in
    let optimal = reduced Exhaustive.allocate in
    let greedy = reduced Fa_aot.allocate in
    if optimal > greedy +. 1e-9 then
      Alcotest.failf "exhaustive %.1f worse than greedy %.1f (seed %d)" optimal
        greedy seed;
    (* and the known envelope: greedy within one Dc of the optimum *)
    if greedy > optimal +. 1.0 +. 1e-9 then
      Alcotest.failf "greedy %.1f beyond optimum %.1f + Dc (seed %d)" greedy
        optimal seed
  done

let test_preserves_value () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:6 in
  let m = Matrix.create () in
  Array.iteri
    (fun i bit ->
      Matrix.add m ~weight:(i mod 2) bit;
      if i mod 3 = 0 then Matrix.add m ~weight:1 bit)
    bits;
  let reference = Matrix.create () in
  for j = 0 to Matrix.width m - 1 do
    List.iter (fun net -> Matrix.add reference ~weight:j net) (Matrix.column m j)
  done;
  Exhaustive.allocate n m;
  for v = 0 to 63 do
    let values = Simulator_reference.run n ~assign:(fun _ -> v) in
    checki "sum preserved" (Matrix.value reference values) (Matrix.value m values)
  done

let test_fig2_optimum_is_seven () =
  (* the Fig. 2 example: the true optimum equals FA_AOT's 7 *)
  let n = mk_netlist ~tech:unit () in
  let add name arrival = (Netlist.add_input n name ~width:1 ~arrival:[| arrival |]).(0) in
  let m = Matrix.create () in
  List.iter
    (fun (name, t) -> Matrix.add m ~weight:0 (add name t))
    [ ("x0", 7.0); ("y0", 2.0); ("z0", 3.0); ("w0", 2.0) ];
  List.iter
    (fun (name, t) -> Matrix.add m ~weight:1 (add name t))
    [ ("x1", 7.0); ("y1", 5.0); ("w1", 4.0) ];
  checkf "optimum 7" 7.0 (Exhaustive.optimal_arrival n m)

let test_too_large_raises () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:16 in
  let m = Matrix.create () in
  Array.iter (fun b -> Matrix.add m ~weight:0 b) bits;
  checkb "raises" true
    (match Exhaustive.optimal_arrival n m with
    | (_ : float) -> false
    | exception Exhaustive.Too_large -> true)

let suite =
  [
    case "replay achieves the predicted optimum" test_replay_achieves_predicted_optimum;
    case "never worse than FA_AOT; greedy within Dc" test_never_worse_than_fa_aot;
    case "reduction preserves the denoted sum" test_preserves_value;
    case "Fig. 2 example: true optimum is 7" test_fig2_optimum_is_seven;
    case "size cap raises Too_large" test_too_large_raises;
  ]
