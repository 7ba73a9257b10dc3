open Dp_netlist
open Helpers

let two_inputs ?(tech = Dp_tech.Tech.lcb_like) () =
  let n = mk_netlist ~tech () in
  let a = (Netlist.add_input n "a" ~width:1 ~arrival:[| 1.0 |] ~prob:[| 0.3 |]).(0) in
  let b = (Netlist.add_input n "b" ~width:1 ~arrival:[| 2.0 |] ~prob:[| 0.8 |]).(0) in
  n, a, b

let test_input_annotation () =
  let n, a, b = two_inputs () in
  checkf "arrival a" 1.0 (Netlist.arrival n a);
  checkf "prob b" 0.8 (Netlist.prob n b);
  checkf "q b" 0.3 (Netlist.q n b)

let test_duplicate_input_raises () =
  let n, _, _ = two_inputs () in
  Alcotest.check_raises "dup" (Invalid_argument "Netlist.add_input: duplicate input a")
    (fun () -> ignore (Netlist.add_input n "a" ~width:2))

let test_const_cached () =
  let n = mk_netlist () in
  checki "same net" (Netlist.const n true) (Netlist.const n true);
  checkb "distinct" true (Netlist.const n true <> Netlist.const n false);
  checkf "prob of 1" 1.0 (Netlist.prob n (Netlist.const n true))

let test_and_prob_and_arrival () =
  let n, a, b = two_inputs () in
  let g = Netlist.and_n n [ a; b ] in
  checkf "p = 0.24" 0.24 (Netlist.prob n g);
  checkf "arrival = 2 + and2" (2.0 +. Dp_tech.Tech.lcb_like.and2_delay)
    (Netlist.arrival n g)

let test_and_structural_hashing () =
  let n, a, b = two_inputs () in
  checki "same gate" (Netlist.and_n n [ a; b ]) (Netlist.and_n n [ b; a ]);
  checki "one cell" 1 (Netlist.cell_count n)

let test_and_simplifications () =
  let n, a, b = two_inputs () in
  checki "x&x = x" a (Netlist.and_n n [ a; a ]);
  checki "x&1 = x" a (Netlist.and_n n [ a; Netlist.const n true ]);
  checki "absorbing 0" (Netlist.const n false)
    (Netlist.and_n n [ a; b; Netlist.const n false ]);
  checki "empty = 1" (Netlist.const n true) (Netlist.and_n n [])

let test_or_simplifications () =
  let n, a, _ = two_inputs () in
  checki "x|0 = x" a (Netlist.or_n n [ a; Netlist.const n false ]);
  checki "absorbing 1" (Netlist.const n true)
    (Netlist.or_n n [ a; Netlist.const n true ])

let test_or_prob () =
  let n, a, b = two_inputs () in
  checkf "p = 1-(0.7*0.2)" 0.86 (Netlist.prob n (Netlist.or_n n [ a; b ]))

(* Every call that comes down to the same two distinct nets returns one
   gate, whichever list spelled it; its probability is the n-ary formula
   on the sorted inputs, bit for bit. *)
let test_pair_cache () =
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let gate name build unit_const prob_of =
    let n, a, b = two_inputs () in
    let u = Netlist.const n unit_const in
    let g = build n [ a; b ] in
    List.iter
      (fun (label, nets) -> checki (name ^ " " ^ label) g (build n nets))
      [ ("[b; a]", [ b; a ]); ("with unit", [ a; b; u ]); ("[b; a; a]", [ b; a; a ]) ];
    checki (name ^ ": one cell") 1 (Netlist.cell_count n);
    checkb (name ^ ": probability bit for bit") true
      (same_bits (prob_of [ Netlist.prob n a; Netlist.prob n b ]) (Netlist.prob n g))
  in
  gate "and" Netlist.and_n true (List.fold_left ( *. ) 1.0);
  gate "or" Netlist.or_n false (fun ps ->
      1.0 -. List.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 ps);
  let n, a, b = two_inputs () in
  checki "x&x = x" a (Netlist.and_n n [ a; a ]);
  checki "x|x = x" a (Netlist.or_n n [ a; a ]);
  let zero = Netlist.const n false and one = Netlist.const n true in
  checki "x&0 = 0" zero (Netlist.and_n n [ a; zero ]);
  checki "x|1 = 1" one (Netlist.or_n n [ a; one ]);
  checki "no cells for folded gates" 0 (Netlist.cell_count n);
  (* three distinct inputs keep the list-keyed table *)
  let c = (Netlist.add_input n "c" ~width:1).(0) in
  let g3 = Netlist.and_n n [ a; b; c ] in
  checki "and3 hashed" g3 (Netlist.and_n n [ c; a; b; Netlist.const n true ]);
  checki "and3 one cell" 1 (Netlist.cell_count n)

let test_not_simplifications () =
  let n, a, _ = two_inputs () in
  let na = Netlist.not_ n a in
  checkf "p = 0.7" 0.7 (Netlist.prob n na);
  checki "double negation" a (Netlist.not_ n na);
  checki "cached" na (Netlist.not_ n a);
  checki "not 1 = 0" (Netlist.const n false) (Netlist.not_ n (Netlist.const n true))

let test_xor_simplifications () =
  let n, a, b = two_inputs () in
  checki "x^0 = x" a (Netlist.xor2 n a (Netlist.const n false));
  checki "x^x = 0" (Netlist.const n false) (Netlist.xor2 n a a);
  let nb = Netlist.xor2 n b (Netlist.const n true) in
  checkf "x^1 = not x" (1.0 -. 0.8) (Netlist.prob n nb);
  checkf "xor prob" (0.3 +. 0.8 -. (2.0 *. 0.3 *. 0.8))
    (Netlist.prob n (Netlist.xor2 n a b))

let test_fa_probability_formulas () =
  let n = mk_netlist () in
  let bits =
    Netlist.add_input n "v" ~width:3 ~prob:[| 0.1; 0.2; 0.3 |]
      ~arrival:[| 0.0; 0.0; 0.0 |]
  in
  let s, c = Netlist.fa n bits.(0) bits.(1) bits.(2) in
  (* q = -0.4, -0.3, -0.2: q(s) = 4*(-0.4)(-0.3)(-0.2) = -0.096;
     q(c) = 0.5*(-0.9) - 2*(-0.024) = -0.402 *)
  checkf "p(s)" (0.5 -. 0.096) (Netlist.prob n s);
  checkf "p(c)" (0.5 -. 0.402) (Netlist.prob n c)

let test_fa_exhaustive_function () =
  (* the FA computes sum/carry of its 3 inputs for all 8 combinations *)
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:3 in
  let s, c = Netlist.fa n bits.(0) bits.(1) bits.(2) in
  Netlist.set_output n "s" [| s |];
  Netlist.set_output n "c" [| c |];
  for v = 0 to 7 do
    let values = Dp_sim.Simulator.run n ~assign:(fun _ -> v) in
    let ones = (v land 1) + ((v lsr 1) land 1) + ((v lsr 2) land 1) in
    checki "sum" (ones land 1) (Dp_sim.Simulator.output_value n values "s");
    checki "carry" (ones lsr 1) (Dp_sim.Simulator.output_value n values "c")
  done

let test_fa_arrival () =
  let n, a, b = two_inputs () in
  let c = (Netlist.add_input n "c" ~width:1 ~arrival:[| 5.0 |] ~prob:[| 0.5 |]).(0) in
  let s, co = Netlist.fa n a b c in
  let t = Dp_tech.Tech.lcb_like in
  checkf "sum arrival" (5.0 +. t.fa_sum_delay) (Netlist.arrival n s);
  checkf "carry arrival" (5.0 +. t.fa_carry_delay) (Netlist.arrival n co)

let test_fa_const_degrades_to_ha () =
  let n, a, b = two_inputs () in
  let before = Netlist.cell_count n in
  let _s, _c = Netlist.fa n a b (Netlist.const n false) in
  checki "one cell" (before + 1) (Netlist.cell_count n);
  let cell = Netlist.cell n before in
  checkb "it is an HA" true (Dp_tech.Cell_kind.equal cell.kind Dp_tech.Cell_kind.Ha)

let test_fa_const1_degrades_to_gates () =
  let n, a, b = two_inputs () in
  let s, c = Netlist.fa n a b (Netlist.const n true) in
  (* s = ~(a^b), c = a|b: check by simulation over the 4 input combos *)
  Netlist.set_output n "s" [| s |];
  Netlist.set_output n "c" [| c |];
  List.iter
    (fun (va, vb) ->
      let assign name = if name = "a" then va else vb in
      let values = Dp_sim.Simulator.run n ~assign in
      let total = va + vb + 1 in
      checki "s" (total land 1) (Dp_sim.Simulator.output_value n values "s");
      checki "c" (total lsr 1) (Dp_sim.Simulator.output_value n values "c"))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

let test_ha_const_cases () =
  let n, a, _ = two_inputs () in
  let s, c = Netlist.ha n a (Netlist.const n false) in
  checki "ha(x,0) sum" a s;
  checki "ha(x,0) carry" (Netlist.const n false) c;
  let s1, c1 = Netlist.ha n a (Netlist.const n true) in
  checki "ha(x,1) carry = x" a c1;
  checkf "ha(x,1) sum = ~x" 0.7 (Netlist.prob n s1)

let test_ha_probability () =
  let n, a, b = two_inputs () in
  let s, c = Netlist.ha n a b in
  (* p(s) = pa(1-pb)+(1-pa)pb = 0.3*0.2 + 0.7*0.8 = 0.62; p(c) = 0.24 *)
  checkf "p(s)" 0.62 (Netlist.prob n s);
  checkf "p(c)" 0.24 (Netlist.prob n c)

let test_outputs_api () =
  let n, a, b = two_inputs () in
  Netlist.set_output n "o" [| a; b |];
  checki "width" 2 (Array.length (Netlist.find_output n "o"));
  Alcotest.check_raises "dup output"
    (Invalid_argument "Netlist.set_output: duplicate output o") (fun () ->
      Netlist.set_output n "o" [| a |]);
  Alcotest.check_raises "missing output"
    (Invalid_argument "Netlist.find_output: no output zzz") (fun () ->
      ignore (Netlist.find_output n "zzz"))

let test_area_accumulates () =
  let n, a, b = two_inputs () in
  let t = Dp_tech.Tech.lcb_like in
  ignore (Netlist.and_n n [ a; b ]);
  ignore (Netlist.fa n a b (Netlist.not_ n a));
  checkf "area" (t.and2_area +. t.fa_area +. t.not_area) (Netlist.area n)

(* ------------------------------------------------------------------ *)
(* Layout: a net's driver is one int, and a cell's outputs are the
   consecutive nets from its first. *)

let test_set_driver_round_trips () =
  let n, a, b = two_inputs () in
  let na = Netlist.not_ n a in
  let s, c = Netlist.fa n a b na in
  checkb "sum driver" true
    (Netlist.driver n s = Netlist.From_cell { cell = 1; port = 0 });
  checkb "carry driver" true
    (Netlist.driver n c = Netlist.From_cell { cell = 1; port = 1 });
  let drivers =
    [
      Netlist.From_input { var = "b"; bit = 0 };
      Netlist.From_const true;
      Netlist.From_const false;
      Netlist.From_cell { cell = 0; port = 0 };
      Netlist.From_cell { cell = 1; port = 1 };
    ]
  in
  List.iter
    (fun (label, net) ->
      List.iter
        (fun d ->
          Netlist.Mutate.set_driver n net d;
          checkb (label ^ ": driver reads back") true
            (Netlist.driver n net = d);
          let cell, port =
            match d with
            | Netlist.From_cell { cell; port } -> (cell, port)
            | Netlist.From_input _ | Netlist.From_const _ -> (-1, -1)
          in
          checki (label ^ ": driving_cell follows") cell
            (Netlist.driving_cell n net);
          checki (label ^ ": driving_port follows") port
            (Netlist.driving_port n net);
          let const = match d with Netlist.From_const v -> Some v | _ -> None in
          checkb (label ^ ": const_value follows") true
            (Netlist.const_value n net = const))
        drivers)
    [ ("cell-driven sum", s); ("cell-driven carry", c); ("input", a) ];
  checkb "untouched input" true
    (Netlist.driver n b = Netlist.From_input { var = "b"; bit = 0 });
  checkb "untouched cell output" true
    (Netlist.driver n na = Netlist.From_cell { cell = 0; port = 0 });
  checki "untouched input: no driving cell" (-1) (Netlist.driving_cell n b);
  checki "untouched cell output: driving cell" 0 (Netlist.driving_cell n na);
  checki "untouched cell output: driving port" 0 (Netlist.driving_port n na)

let test_cell_outputs_match_builders () =
  let n = mk_netlist () in
  let x =
    Netlist.add_input n "x" ~width:7
      ~arrival:(Array.init 7 float_of_int)
      ~prob:(Array.init 7 (fun i -> 0.2 +. (0.1 *. float_of_int i)))
  in
  let built = ref [] in
  let record outs = built := (Netlist.cell_count n - 1, outs) :: !built in
  let s, c = Netlist.fa n x.(0) x.(1) x.(2) in
  record [| s; c |];
  let s, c = Netlist.ha n x.(3) x.(4) in
  record [| s; c |];
  let s, c, co = Netlist.c42 n (Array.sub x 0 5) in
  record [| s; c; co |];
  let s0, s1, s2 = Netlist.c53 n (Array.sub x 2 5) in
  record [| s0; s1; s2 |];
  let s0, s1, s2 = Netlist.c73 n x in
  record [| s0; s1; s2 |];
  record [| Netlist.and_n n [ x.(5); x.(6) ] |];
  record [| Netlist.and_n n [ x.(0); x.(3); x.(6) ] |];
  record [| Netlist.not_ n x.(6) |];
  checki "one cell per builder" (List.length !built) (Netlist.cell_count n);
  let check_all label =
    List.iter
      (fun (id, outs) ->
        check Alcotest.(array int) (Printf.sprintf "%s: cell %d" label id) outs
          (Netlist.cell_output_nets n id);
        Array.iteri
          (fun port net ->
            checki
              (Printf.sprintf "%s: cell %d port %d" label id port)
              net
              (Netlist.output_net n id ~port))
          outs)
      !built
  in
  check_all "as built";
  let retype id kind =
    Netlist.Mutate.set_cell n id { (Netlist.cell n id) with kind }
  in
  retype 2 Dp_tech.Cell_kind.C53;
  retype 3 Dp_tech.Cell_kind.C42;
  check_all "C42 <-> C53 retyped";
  retype 2 Dp_tech.Cell_kind.C42;
  retype 3 Dp_tech.Cell_kind.C53;
  check_all "retyped back"

(* ------------------------------------------------------------------ *)
(* Topo / Stats *)

let small_tree () =
  let n, a, b = two_inputs () in
  let g = Netlist.and_n n [ a; b ] in
  let s, c = Netlist.fa n a b g in
  Netlist.set_output n "out" [| s; c |];
  n

let test_topo_check () = checkb "topo ok" true (Topo.check (small_tree ()))

let test_topo_levels () =
  let n = small_tree () in
  let levels = Topo.levels n in
  let out = Netlist.find_output n "out" in
  checki "fa after and" 2 levels.(out.(0));
  checki "depth" 2 (Topo.depth n)

(* [Topo.levels] reads net codes; the reference reads [Netlist.driver].
   A netlist corrupted by [Inject] can make both raise (a dangling pin),
   so the outcomes are compared, exceptions included. *)
let same_levels label netlist =
  let outcome f = match f netlist with v -> Ok v | exception e -> Error e in
  if outcome Topo.levels <> outcome Topo_reference.levels then
    Alcotest.failf "%s: levels differ from the reference" label;
  if outcome Topo.depth <> outcome Topo_reference.depth then
    Alcotest.failf "%s: depth differs from the reference" label

let test_topo_levels_reference () =
  List.iter
    (fun (d : Dp_designs.Design.t) ->
      List.iter
        (fun strategy ->
          let r = Dp_flow.Synth.run strategy d.env d.expr ~width:d.width in
          same_levels
            (Printf.sprintf "%s/%s" d.name (Dp_flow.Strategy.name strategy))
            r.netlist)
        Dp_flow.Strategy.all)
    (Dp_designs.Catalog.all @ Dp_designs.Catalog.table2)

let test_topo_levels_reference_injected () =
  let env = Dp_expr.Env.of_widths [ ("x", 5); ("y", 4); ("z", 6) ] in
  let victim strategy src () =
    (Dp_flow.Synth.run strategy env (Dp_expr.Parse.expr src)).netlist
  in
  (* the Dadda 4:2 tree is the victim that holds counter cells *)
  let victims =
    [
      victim Dp_flow.Strategy.Fa_aot "x*y + z";
      victim Dp_flow.Strategy.Dadda_gpc "x*y + y*z + z*x";
    ]
  in
  List.iter
    (fun m ->
      let applied = ref false in
      List.iter
        (fun fresh ->
          List.iter
            (fun seed ->
              let nl = fresh () in
              match Dp_verify.Inject.apply ~seed nl m with
              | None -> ()
              | Some descr ->
                applied := true;
                same_levels (Dp_verify.Inject.name m ^ ": " ^ descr) nl)
            [ 0; 1; 2; 3; 4 ])
        victims;
      checkb (Dp_verify.Inject.name m ^ " applied") true !applied)
    Dp_verify.Inject.all

let test_critical_path_endpoints () =
  let n = small_tree () in
  let out = Netlist.find_output n "out" in
  let path = Topo.critical_path n ~from:out.(0) in
  checkb "nonempty" true (List.length path >= 2);
  (* path is source-first and ends at the requested net *)
  checki "ends at output" out.(0) (List.nth path (List.length path - 1))

let test_stats () =
  let n = small_tree () in
  let s = Stats.of_netlist n in
  checki "cells" 2 s.cells;
  checki "fa" 1 s.fa_count;
  checki "gates" 1 s.gate_count;
  checkb "delay positive" true (s.delay > 0.0)

let test_kind_counts () =
  let n = small_tree () in
  let counts = Stats.kind_counts n in
  checki "two kinds" 2 (List.length counts)

(* ------------------------------------------------------------------ *)
(* Verilog / Dot emitters *)

let test_verilog_structure () =
  let n = small_tree () in
  let v = Verilog.emit ~module_name:"tree" n in
  List.iter
    (fun needle -> checkb needle true (contains ~needle v))
    [
      "module tree (a, b, out);";
      "input [0:0] a;";
      "output [1:0] out;";
      "DP_FA";
      "module DP_FA";
      "endmodule";
      "assign out[0]";
    ]

let test_verilog_no_unused_submodules () =
  let n, a, b = two_inputs () in
  Netlist.set_output n "o" [| Netlist.and_n n [ a; b ] |];
  let v = Verilog.emit n in
  checkb "no DP_FA" false (contains ~needle:"DP_FA" v);
  checkb "no DP_HA" false (contains ~needle:"DP_HA" v)

let test_verilog_constants_declared_when_used () =
  let n, a, _ = two_inputs () in
  Netlist.set_output n "o" [| a; Netlist.const n false |];
  let v = Verilog.emit n in
  checkb "const0 wire" true (contains ~needle:"assign const0 = 1'b0;" v)

let test_dot_structure () =
  let n = small_tree () in
  let d = Dot.emit n in
  checkb "digraph" true (contains ~needle:"digraph netlist {" d);
  checkb "fa box" true (contains ~needle:"label=\"FA\"" d);
  checkb "closed" true (contains ~needle:"}" d)

let suite =
  [
    case "input annotation" test_input_annotation;
    case "duplicate input raises" test_duplicate_input_raises;
    case "constants are cached" test_const_cached;
    case "AND: probability and arrival" test_and_prob_and_arrival;
    case "AND: structural hashing" test_and_structural_hashing;
    case "AND: simplifications" test_and_simplifications;
    case "OR: simplifications" test_or_simplifications;
    case "OR: probability" test_or_prob;
    case "NOT: simplifications and caching" test_not_simplifications;
    case "XOR: simplifications and probability" test_xor_simplifications;
    case "FA: paper probability formulas" test_fa_probability_formulas;
    case "FA: exhaustive truth table" test_fa_exhaustive_function;
    case "FA: arrival = max input + Ds/Dc" test_fa_arrival;
    case "FA with constant 0 degrades to HA" test_fa_const_degrades_to_ha;
    case "FA with constant 1 degrades to gates" test_fa_const1_degrades_to_gates;
    case "HA: constant cases" test_ha_const_cases;
    case "HA: probability" test_ha_probability;
    case "outputs API" test_outputs_api;
    case "area accumulates" test_area_accumulates;
    case "topo: creation order is topological" test_topo_check;
    case "topo: levels" test_topo_levels;
    case "topo: critical path endpoints" test_critical_path_endpoints;
    case "stats summary" test_stats;
    case "stats kind counts" test_kind_counts;
    case "verilog: structure" test_verilog_structure;
    case "verilog: unused submodules omitted" test_verilog_no_unused_submodules;
    case "verilog: constants declared when used" test_verilog_constants_declared_when_used;
    case "dot: structure" test_dot_structure;
    case "AND/OR: two-input structural hash" test_pair_cache;
    case "layout: set_driver round-trips on cell and input nets"
      test_set_driver_round_trips;
    case "layout: cell outputs are what the builders returned"
      test_cell_outputs_match_builders;
    case "topo: levels = driver-based reference on the catalog"
      test_topo_levels_reference;
    case "topo: levels = driver-based reference under every injected fault"
      test_topo_levels_reference_injected;
  ]
  @ Test_arena.suite
