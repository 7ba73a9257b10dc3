open Dp_netlist
open Dp_core
open Dp_counters
open Helpers
module Recipe = Dp_tech.Recipe

let kind_name = Dp_tech.Cell_kind.name

(* ------------------------------------------------------------------ *)
(* Arithmetic spec: the defining popcount invariant *)

let test_spec_popcount_invariant () =
  List.iter
    (fun k ->
      let m = Spec.arity k in
      for v = 0 to (1 lsl m) - 1 do
        checki
          (Fmt.str "%s weighted value on %d" (kind_name k) v)
          (Spec.popcount v) (Spec.weighted_value k v)
      done)
    Spec.kinds

(* ------------------------------------------------------------------ *)
(* The recipe table: every body matches the spec on all 2^m assignments *)

let test_body_exhaustive () =
  List.iter
    (fun k ->
      let r = Recipe.of_kind k in
      let m = Spec.arity k in
      for v = 0 to (1 lsl m) - 1 do
        for port = 0 to 2 do
          checkb
            (Fmt.str "%s port %d on %d" (kind_name k) port v)
            (Spec.port_value k ~port v)
            (Body.port_value r ~port v)
        done
      done)
    Spec.kinds

(* The search is deterministic and reproduces the checked-in table
   exactly — blocks, outputs, and so every cost — which proves each
   table entry minimal. *)
let test_exact_reproduces_table () =
  List.iter
    (fun k ->
      let name = kind_name k in
      let a = Exact.synthesize k in
      let t = Recipe.of_kind k in
      checkb (name ^ ": repeat searches agree") true (a = Exact.synthesize k);
      checkb (name ^ ": blocks") true (a.blocks = t.blocks);
      checkb (name ^ ": outputs") true (a.outputs = t.outputs);
      checkb (name ^ ": search equals table") true (a = t);
      checki (name ^ " FA count") (Recipe.fa_count a) (Recipe.fa_count t);
      checki (name ^ " HA count") (Recipe.ha_count a) (Recipe.ha_count t);
      checki (name ^ " area units") (Exact.area_units a) (Exact.area_units t);
      checki (name ^ " depth") (Exact.depth a) (Exact.depth t))
    Spec.kinds

(* Known-minimal costs, locked as a regression: a table or search change
   that yields a bigger (or deeper) body must fail loudly. *)
let test_exact_costs () =
  List.iter
    (fun (k, fa, ha, depth) ->
      let r = Recipe.of_kind k in
      checki (Fmt.str "%s FA count" (kind_name k)) fa (Recipe.fa_count r);
      checki (Fmt.str "%s HA count" (kind_name k)) ha (Recipe.ha_count r);
      checki
        (Fmt.str "%s area units" (kind_name k))
        ((2 * fa) + ha)
        (Exact.area_units r);
      checki (Fmt.str "%s depth" (kind_name k)) depth (Exact.depth r))
    [
      (Dp_tech.Cell_kind.C42, 2, 0, 2);
      (Dp_tech.Cell_kind.C53, 2, 1, 3);
      (Dp_tech.Cell_kind.C63, 3, 1, 3);
      (Dp_tech.Cell_kind.C73, 4, 0, 3);
    ]

(* ------------------------------------------------------------------ *)
(* Monolithic cell vs expanded body: exhaustive netlist equivalence *)

let cell_builder = function
  | Dp_tech.Cell_kind.C53 -> Netlist.c53
  | Dp_tech.Cell_kind.C63 -> Netlist.c63
  | Dp_tech.Cell_kind.C73 -> Netlist.c73
  | Dp_tech.Cell_kind.C42 -> Netlist.c42
  | k -> Alcotest.failf "not a counter: %s" (kind_name k)

let test_cell_matches_expanded_body () =
  List.iter
    (fun k ->
      let m = Spec.arity k in
      let nl = mk_netlist () in
      let pins = Netlist.add_input nl "p" ~width:m in
      let s0, s1, s2 = (cell_builder k) nl pins in
      let b0, b1, b2 = Netlist.counter_body nl k pins in
      Netlist.set_output nl "cell" [| s0; s1; s2 |];
      Netlist.set_output nl "body" [| b0; b1; b2 |];
      for v = 0 to (1 lsl m) - 1 do
        let values = Simulator_reference.run nl ~assign:(fun _ -> v) in
        checki
          (Fmt.str "%s cell = body on %d" (kind_name k) v)
          (Simulator_reference.output_value nl values "body")
          (Simulator_reference.output_value nl values "cell")
      done)
    Spec.kinds

(* ------------------------------------------------------------------ *)
(* Certification and the closed-form delay/energy models *)

let techs = [ Dp_tech.Tech.lcb_like; Dp_tech.Tech.unit_delay ]

let test_certify_passes () =
  List.iter
    (fun tech ->
      Certify.ensure tech;
      (* second call hits the per-technology memo *)
      Certify.ensure tech)
    techs

(* The gate is load-bearing: a miswired body is refused with DP-CTR001. *)
let test_certify_rejects_tampered () =
  let rejects label r =
    match Certify.check Dp_tech.Tech.lcb_like r with
    | () -> Alcotest.failf "%s: accepted" label
    | exception Dp_diag.Diag.E d ->
      check Alcotest.string label "DP-CTR001" d.Dp_diag.Diag.code
  in
  List.iter
    (fun k ->
      let r = Recipe.of_kind k in
      let name = kind_name k in
      Certify.check Dp_tech.Tech.lcb_like r;
      let outputs = Array.copy r.outputs in
      outputs.(0) <- r.outputs.(1);
      outputs.(1) <- r.outputs.(0);
      rejects (name ^ ": swapped output port") { r with outputs };
      let nb = Array.length r.blocks in
      rejects
        (name ^ ": dropped block")
        { r with blocks = Array.sub r.blocks 0 (nb - 1) };
      let blocks = Array.copy r.blocks in
      blocks.(nb - 2) <- r.blocks.(nb - 1);
      blocks.(nb - 1) <- r.blocks.(nb - 2);
      rejects (name ^ ": blocks out of order") { r with blocks };
      let blocks = Array.copy r.blocks in
      blocks.(0) <- { fa = false; args = Array.sub r.blocks.(0).args 0 2 };
      rejects (name ^ ": FA turned into an HA") { r with blocks })
    Spec.kinds

(* The memo is shared by worker threads: eight threads racing through the
   first certification of a fresh technology all build the netlist a
   sequential run builds. *)
let test_certify_concurrent_first_use () =
  let tech = { Dp_tech.Tech.lcb_like with counter_fusion = 0.81 } in
  let d = Dp_designs.Catalog.idct in
  let verilog () =
    Verilog.emit
      (Dp_flow.Synth.run ~tech ~width:d.width Dp_flow.Strategy.Sc_t_gpc d.env
         d.expr)
        .netlist
  in
  let results = Array.make 8 (Error "not run") in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              (try Ok (verilog ()) with e -> Error (Printexc.to_string e)))
          ())
  in
  Array.iter Thread.join threads;
  let sequential = verilog () in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check Alcotest.string (Fmt.str "thread %d" i) sequential v
      | Error e -> Alcotest.failf "thread %d: %s" i e)
    results

(* The technology's monolithic closed forms must equal the recipe-derived
   model on every (pin, port) pair, including path absence — this is the
   contract Certify enforces; assert it directly so a drift is pinned to
   the exact pin. *)
let test_closed_forms_match_model () =
  List.iter
    (fun tech ->
      List.iter
        (fun k ->
          let r = Recipe.of_kind k in
          for pin = 0 to Spec.arity k - 1 do
            for port = 0 to 2 do
              let label =
                Fmt.str "%s %s pin %d port %d" tech.Dp_tech.Tech.name
                  (kind_name k) pin port
              in
              match
                ( Dp_tech.Tech.pin_delay tech k ~pin ~port,
                  Model.pin_delay tech r ~pin ~port )
              with
              | None, None -> ()
              | Some a, Some b -> checkf label b a
              | Some _, None -> Alcotest.failf "%s: closed form invents a path" label
              | None, Some _ -> Alcotest.failf "%s: closed form misses a path" label
            done
          done)
        Spec.kinds)
    techs

(* ------------------------------------------------------------------ *)
(* GPC column reduction: the queue-based reducer and the sort-per-step
   reference make identical decisions (same counters, same FA/HA order,
   same carries) *)

let cell_trace nl =
  List.init (Netlist.cell_count nl) (fun id ->
      ( id,
        Netlist.cell_kind nl id,
        List.init (Netlist.pin_count nl id) (Netlist.pin nl id) ))

let run_column ?probs arrivals f =
  let nl = mk_netlist () in
  let col = mk_column ?probs nl arrivals in
  let kept, ones, twos = f nl col in
  (kept, ones, twos, cell_trace nl)

let check_identical label ?probs arrivals queue reference =
  let a = run_column ?probs arrivals queue in
  let b = run_column ?probs arrivals reference in
  checkb label true (a = b)

(* Eleven near-simultaneous bits (one 7:3 counter plus FA/HA fill) and
   two stragglers outside the SC_T cohort. *)
let spread_arrivals =
  [| 0.0; 0.1; 0.2; 0.3; 0.05; 0.15; 0.25; 0.35; 0.12; 0.18; 0.22; 2.0; 2.2 |]

let spread_probs =
  [| 0.5; 0.1; 0.9; 0.5; 0.3; 0.7; 0.5; 0.2; 0.8; 0.4; 0.6; 0.5; 0.5 |]

let test_gpc_queue_vs_reference_fixed () =
  check_identical "sc_t_gpc column" ~probs:spread_probs spread_arrivals
    Gpc.reduce_column_t Reduce_reference.Gpc.reduce_column_t;
  check_identical "sc_lp_gpc column" ~probs:spread_probs spread_arrivals
    Gpc.reduce_column_lp Reduce_reference.Gpc.reduce_column_lp

(* Random columns from [Helpers.gen_column_spec]: tie-heavy fresh inputs,
   constants (which ride the fill) and repeated nets (which can fill two
   pins of one counter). *)
let gpc_queue_vs_reference_random =
  let run spec f =
    let nl = mk_netlist () in
    let kept, ones, twos = f nl (build_column nl spec) in
    (kept, ones, twos, cell_trace nl)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"gpc: queue = reference on random columns"
       ~count:150 ~print:print_column_spec gen_column_spec (fun spec ->
         run spec Gpc.reduce_column_t
         = run spec Reduce_reference.Gpc.reduce_column_t
         && run spec Gpc.reduce_column_lp
            = run spec Reduce_reference.Gpc.reduce_column_lp))

(* ------------------------------------------------------------------ *)
(* Whole-flow determinism: two runs of a counter strategy emit the same
   netlist bit for bit, and the tree really does contain counters *)

let env = Dp_expr.Env.of_widths [ ("x", 5); ("y", 4); ("z", 6) ]
let expr = Dp_expr.Parse.expr "x*y + y*z + z*x + 9"

let test_gpc_run_deterministic () =
  List.iter
    (fun strategy ->
      let a = Dp_flow.Synth.run strategy env expr in
      let b = Dp_flow.Synth.run strategy env expr in
      check Alcotest.string
        (Dp_flow.Strategy.name strategy ^ " deterministic")
        (Verilog.emit a.netlist) (Verilog.emit b.netlist);
      checkb
        (Dp_flow.Strategy.name strategy ^ " places counters")
        true
        ((Stats.of_netlist a.netlist).Stats.counter_count > 0))
    [
      Dp_flow.Strategy.Sc_t_gpc;
      Dp_flow.Strategy.Sc_lp_gpc;
      Dp_flow.Strategy.Dadda_gpc;
    ]

(* Every counter strategy is exhaustively equivalent to the source
   expression on a small design (all 2^9 assignments). *)
let small_env = Dp_expr.Env.of_widths [ ("a", 3); ("b", 3); ("c", 3) ]
let small_expr = Dp_expr.Parse.expr "a*b + b*c + c*a + 5"

let test_gpc_exhaustive_equivalence () =
  List.iter
    (fun strategy ->
      let r = Dp_flow.Synth.run strategy small_env small_expr in
      match
        Dp_sim.Equiv.check_exhaustive r.netlist small_expr ~output:"out"
          ~width:r.width
      with
      | Ok () -> ()
      | Error m ->
        Alcotest.failf "%s: %a"
          (Dp_flow.Strategy.name strategy)
          Dp_sim.Equiv.pp_mismatch m)
    [
      Dp_flow.Strategy.Sc_t_gpc;
      Dp_flow.Strategy.Sc_lp_gpc;
      Dp_flow.Strategy.Dadda_gpc;
    ]

let suite =
  [
    case "spec: weighted ports equal popcount" test_spec_popcount_invariant;
    case "exact: bodies match spec on all 2^m inputs" test_body_exhaustive;
    case "exact: search reproduces the table" test_exact_reproduces_table;
    case "exact: minimal costs locked" test_exact_costs;
    case "cell: monolithic equals expanded body" test_cell_matches_expanded_body;
    case "certify: lcb_like and unit_delay pass" test_certify_passes;
    case "certify: tampered bodies rejected" test_certify_rejects_tampered;
    case "certify: concurrent first GPC synth" test_certify_concurrent_first_use;
    case "model: closed forms equal recipe model" test_closed_forms_match_model;
    case "gpc: heap equals reference (fixed column)"
      test_gpc_queue_vs_reference_fixed;
    gpc_queue_vs_reference_random;
    case "gpc: strategies deterministic and place counters"
      test_gpc_run_deterministic;
    case "gpc: exhaustive equivalence on a small design"
      test_gpc_exhaustive_equivalence;
  ]
