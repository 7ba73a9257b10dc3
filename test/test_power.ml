open Dp_netlist
open Dp_power
open Helpers

(* Exact probability of a net by weighted truth-table enumeration — valid
   reference for ANY circuit (handles reconvergence exactly). *)
let exact_probs netlist =
  let inputs = Netlist.inputs netlist in
  let names = List.map fst inputs in
  let widths = List.map (fun (_, nets) -> Array.length nets) inputs in
  let total_bits = List.fold_left ( + ) 0 widths in
  assert (total_bits <= 16);
  let n = Netlist.net_count netlist in
  let acc = Array.make n 0.0 in
  for code = 0 to (1 lsl total_bits) - 1 do
    (* split the code across inputs and compute this assignment's weight *)
    let rec split code = function
      | [] -> []
      | (name, w) :: rest ->
        (name, code land Dp_expr.Eval.mask w) :: split (code lsr w) rest
    in
    let alist = split code (List.combine names widths) in
    let weight = ref 1.0 in
    List.iter
      (fun (name, nets) ->
        let v = List.assoc name alist in
        Array.iteri
          (fun bit net ->
            let p = Netlist.prob netlist net in
            weight := !weight *. (if (v lsr bit) land 1 = 1 then p else 1.0 -. p))
          nets)
      inputs;
    let values = Simulator_reference.run netlist ~assign:(assign_of alist) in
    for net = 0 to n - 1 do
      if values.(net) then acc.(net) <- acc.(net) +. !weight
    done
  done;
  acc

let test_prob_agrees_with_builder () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:4 ~prob:[| 0.1; 0.9; 0.4; 0.7 |] in
  let s, c = Netlist.fa n bits.(0) bits.(1) bits.(2) in
  let s2, c2 = Netlist.ha n s bits.(3) in
  Netlist.set_output n "o" [| s2; c2; c |];
  checkb "agree" true (Prob.agrees_with_annotation n)

let test_prob_exact_on_tree () =
  (* a fanout-free tree: propagation is exact, so it must match the
     truth-table reference *)
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:6 ~prob:[| 0.1; 0.9; 0.4; 0.7; 0.3; 0.55 |] in
  let g1 = Netlist.and_n n [ bits.(0); bits.(1) ] in
  let g2 = Netlist.or_n n [ bits.(2); bits.(3) ] in
  let s, c = Netlist.fa n g1 g2 (Netlist.xor2 n bits.(4) bits.(5)) in
  Netlist.set_output n "o" [| s; c |];
  let exact = exact_probs n in
  let propagated = Prob.probabilities n in
  Array.iteri
    (fun net e ->
      if Float.abs (e -. propagated.(net)) > 1e-9 then
        Alcotest.failf "net %d: exact %.6f propagated %.6f" net e propagated.(net))
    exact

let test_fa_q_formulas_exact () =
  (* the FA q-algebra matches truth-table enumeration on independent bits *)
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:3 ~prob:[| 0.15; 0.6; 0.85 |] in
  let s, c = Netlist.fa n bits.(0) bits.(1) bits.(2) in
  Netlist.set_output n "o" [| s; c |];
  let exact = exact_probs n in
  checkf "sum" exact.(s) (Netlist.prob n s);
  checkf "carry" exact.(c) (Netlist.prob n c)

let test_activity () =
  checkf "max at 0.5" 0.25 (Switching.activity 0.5);
  checkf "zero at 1" 0.0 (Switching.activity 1.0);
  checkf "symmetric" (Switching.activity 0.3) (Switching.activity 0.7)

let test_tree_switching_counts_fa_ha_only () =
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:3 ~prob:[| 0.4; 0.5; 0.6 |] in
  let g = Netlist.and_n n [ bits.(0); bits.(1) ] in
  let s, c = Netlist.ha n g bits.(2) in
  Netlist.set_output n "o" [| s; c |];
  let t = Dp_tech.Tech.lcb_like in
  let expected =
    (t.ha_sum_energy *. Switching.activity (Netlist.prob n s))
    +. (t.ha_carry_energy *. Switching.activity (Netlist.prob n c))
  in
  checkf "tree switching" expected (Switching.tree_switching n);
  checkb "total includes the AND" true
    (Switching.total_switching n > Switching.tree_switching n)

let test_monte_carlo_consistency () =
  (* measured toggle rate must be ~ 2 p(1-p) of the measured probability:
     vectors are temporally independent by construction *)
  let d = Dp_designs.Catalog.x2 in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_alp d.env d.expr ~width:d.width in
  let vectors = 4000 in
  let rates = Dp_sim.Monte_carlo.toggle_rates ~vectors r.netlist in
  let probs = Dp_sim.Monte_carlo.measured_prob ~vectors r.netlist in
  Array.iteri
    (fun net rate ->
      let expected = 2.0 *. probs.(net) *. (1.0 -. probs.(net)) in
      if Float.abs (rate -. expected) > 0.06 then
        Alcotest.failf "net %d: rate %.3f vs 2p(1-p) %.3f" net rate expected)
    rates.toggle_rate

let test_monte_carlo_matches_analytic_on_tree () =
  (* on a fanout-free circuit the analytic model is exact, so simulation
     must converge to it *)
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:4 ~prob:[| 0.2; 0.7; 0.4; 0.9 |] in
  let s, c = Netlist.fa n bits.(0) bits.(1) bits.(2) in
  let s2, c2 = Netlist.ha n s bits.(3) in
  ignore c2;
  Netlist.set_output n "o" [| s2; c |];
  let probs = Dp_sim.Monte_carlo.measured_prob ~vectors:20000 n in
  checkf_eps 0.02 "sum prob" (Netlist.prob n s2) probs.(s2);
  checkf_eps 0.02 "carry prob" (Netlist.prob n c) probs.(c)

let test_monte_carlo_switching_tracks_analytic () =
  (* x^3 allocates real FAs; measured energy sums over all cell outputs, so
     compare against total_switching.  Reconvergent fanout makes the
     analytic value approximate — allow 30%. *)
  let d = Dp_designs.Catalog.x3 in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_alp d.env d.expr ~width:d.width in
  let rates = Dp_sim.Monte_carlo.toggle_rates ~vectors:6000 r.netlist in
  let measured = Dp_sim.Monte_carlo.switching_energy r.netlist rates.toggle_rate in
  let analytic = r.total_switching in
  checkb
    (Printf.sprintf "measured %.3f vs analytic %.3f" measured analytic)
    true
    (Float.abs (measured -. analytic) /. analytic < 0.30)

let test_monte_carlo_validation () =
  Alcotest.check_raises "needs 2 vectors"
    (Invalid_argument "Monte_carlo.toggle_rates: need >= 2 vectors") (fun () ->
      ignore (Dp_sim.Monte_carlo.toggle_rates ~vectors:1 (mk_netlist ())))

let suite =
  [
    case "propagation agrees with builder annotation" test_prob_agrees_with_builder;
    case "propagation exact on fanout-free trees" test_prob_exact_on_tree;
    case "FA q-formulas match truth tables" test_fa_q_formulas_exact;
    case "activity p(1-p)" test_activity;
    case "tree switching counts FA/HA only" test_tree_switching_counts_fa_ha_only;
    case "monte carlo: toggle rate = 2p(1-p)" test_monte_carlo_consistency;
    case "monte carlo: converges to analytic on trees" test_monte_carlo_matches_analytic_on_tree;
    case "monte carlo: switching tracks analytic" test_monte_carlo_switching_tracks_analytic;
    case "monte carlo: input validation" test_monte_carlo_validation;
  ]
