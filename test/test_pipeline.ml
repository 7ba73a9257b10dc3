open Dp_netlist
open Dp_pipeline.Pipeline
open Helpers

let fa_chain ?(tech = Dp_tech.Tech.lcb_like) length =
  (* a deliberately serial chain: FA_i's sum feeds FA_{i+1} *)
  let n = mk_netlist ~tech () in
  let a = Netlist.add_input n "a" ~width:length in
  let b = Netlist.add_input n "b" ~width:length in
  let acc = ref a.(0) in
  for i = 1 to length - 1 do
    let s, _c = Netlist.fa n !acc a.(i) b.(i) in
    acc := s
  done;
  Netlist.set_output n "out" [| !acc |];
  n

let test_min_cycle_time () =
  let n = fa_chain 4 in
  checkf "slowest cell = Ds" Dp_tech.Tech.lcb_like.fa_sum_delay (min_cycle_time n)

let test_combinational_when_cycle_large () =
  let n = fa_chain 5 in
  let p = plan n ~cycle_time:1000.0 in
  checki "one stage" 1 p.latency;
  checki "no registers" 0 p.register_bits

let test_stages_respect_cycle_time () =
  let n = fa_chain 9 in
  let t = Dp_tech.Tech.lcb_like.fa_sum_delay +. 0.01 in
  let p = plan n ~cycle_time:t in
  (* one FA per stage: 8 FAs -> 8 stages *)
  checki "eight stages" 8 p.latency;
  Array.iter
    (fun d -> checkb "stage fits" true (d <= t +. 1e-9))
    p.stage_delay;
  Array.iteri
    (fun net local ->
      checkb
        (Printf.sprintf "net %d local %.3f within cycle" net local)
        true
        (local <= t +. 1e-9))
    p.local_arrival

let test_stage_monotone_along_edges () =
  let d = Dp_designs.Catalog.kalman in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let p = plan r.netlist ~cycle_time:2.0 in
  iter_edges r.netlist (fun ~input ~output ->
      if p.stage_of_net.(input) > p.stage_of_net.(output) then
        Alcotest.failf "edge goes backwards in time (net %d -> %d)" input
          output)

let test_latency_monotone_in_cycle_time () =
  let d = Dp_designs.Catalog.idct in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let latencies =
    List.map (fun t -> (plan r.netlist ~cycle_time:t).latency) [ 1.0; 2.0; 4.0; 16.0 ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | [ _ ] | [] -> true
  in
  checkb "latency shrinks with slower clocks" true (non_increasing latencies);
  checki "fits in one cycle eventually" 1 (List.nth latencies 3)

let test_balanced_tree_needs_fewer_registers () =
  (* at the same cycle time a balanced FA_AOT tree pipelines more cheaply
     than the conventional operator chain *)
  let d = Dp_designs.Catalog.fir8 in
  let cost strategy =
    let r = Dp_flow.Synth.run strategy d.env d.expr ~width:d.width in
    (plan r.netlist ~cycle_time:2.5).register_bits
  in
  let aot = cost Dp_flow.Strategy.Fa_aot in
  let conv = cost Dp_flow.Strategy.Conventional in
  checkb
    (Printf.sprintf "AOT %d <= Conventional %d register bits" aot conv)
    true (aot <= conv)

let test_bad_cycle_time_rejected () =
  let n = fa_chain 3 in
  checkb "too small" true
    (match plan n ~cycle_time:0.1 with
    | (_ : plan) -> false
    | exception Invalid_argument _ -> true);
  checkb "non-positive" true
    (match plan n ~cycle_time:0.0 with
    | (_ : plan) -> false
    | exception Invalid_argument _ -> true)

let test_late_inputs_start_in_later_stages () =
  let n = mk_netlist () in
  let late = (Netlist.add_input n "late" ~width:1 ~arrival:[| 5.0 |]).(0) in
  let early = (Netlist.add_input n "early" ~width:1).(0) in
  let s, _ = Netlist.ha n late early in
  Netlist.set_output n "out" [| s |];
  let p = plan n ~cycle_time:2.0 in
  checki "late input in stage 2" 2 p.stage_of_net.(late);
  checkb "sum no earlier than its operand" true
    (p.stage_of_net.(s) >= 2)

let suite =
  [
    case "min cycle time = slowest cell" test_min_cycle_time;
    case "large cycle: combinational, zero registers"
      test_combinational_when_cycle_large;
    case "tight cycle: one FA per stage" test_stages_respect_cycle_time;
    case "stages monotone along edges" test_stage_monotone_along_edges;
    case "latency monotone in cycle time" test_latency_monotone_in_cycle_time;
    case "balanced trees pipeline cheaper" test_balanced_tree_needs_fewer_registers;
    case "bad cycle times rejected" test_bad_cycle_time_rejected;
    case "late inputs start in later stages" test_late_inputs_start_in_later_stages;
  ]
