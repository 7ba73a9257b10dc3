(* Tests for the performance work: the queue-based SC_T/SC_LP and the
   shared sweep and staged drivers must make byte-identical decisions to
   the retained references in [Reduce_reference], the
   64-lane bit-parallel simulator must agree with the scalar simulator and
   the bignum reference, the supporting structures (Net_queue against the
   binary heap it replaced, the netlist name index, the one-pass
   FA_random selection) keep their contracts, and the builders and
   reducers stay within their allocation budgets. *)

open Dp_netlist
open Helpers

(* ------------------------------------------------------------------ *)
(* Byte-identity of two netlists: every net (driver, arrival,
   probability), every cell (kind, inputs), and the declared busses must
   match exactly.  Floats are compared for equality on purpose — the two
   implementations are supposed to perform the very same operations in
   the very same order. *)

let same_driver a b =
  match (a, b) with
  | Netlist.From_input x, Netlist.From_input y -> x.var = y.var && x.bit = y.bit
  | Netlist.From_const x, Netlist.From_const y -> x = y
  | Netlist.From_cell x, Netlist.From_cell y ->
    x.cell = y.cell && x.port = y.port
  | _ -> false

let explain_netlist_diff a b =
  if Netlist.net_count a <> Netlist.net_count b then
    Some
      (Printf.sprintf "net counts differ: %d vs %d" (Netlist.net_count a)
         (Netlist.net_count b))
  else if Netlist.cell_count a <> Netlist.cell_count b then
    Some
      (Printf.sprintf "cell counts differ: %d vs %d" (Netlist.cell_count a)
         (Netlist.cell_count b))
  else begin
    let diff = ref None in
    for net = Netlist.net_count a - 1 downto 0 do
      if not (same_driver (Netlist.driver a net) (Netlist.driver b net)) then
        diff := Some (Printf.sprintf "net %d: drivers differ" net)
      else if Netlist.arrival a net <> Netlist.arrival b net then
        diff :=
          Some
            (Printf.sprintf "net %d: arrival %g vs %g" net
               (Netlist.arrival a net) (Netlist.arrival b net))
      else if Netlist.prob a net <> Netlist.prob b net then
        diff :=
          Some
            (Printf.sprintf "net %d: prob %g vs %g" net (Netlist.prob a net)
               (Netlist.prob b net))
    done;
    for id = Netlist.cell_count a - 1 downto 0 do
      let ca = Netlist.cell a id and cb = Netlist.cell b id in
      if ca.kind <> cb.kind || ca.inputs <> cb.inputs then
        diff := Some (Printf.sprintf "cell %d differs" id)
    done;
    if Netlist.inputs a <> Netlist.inputs b then diff := Some "inputs differ";
    if Netlist.outputs a <> Netlist.outputs b then diff := Some "outputs differ";
    !diff
  end

let check_identical what a b =
  match explain_netlist_diff a b with
  | None -> ()
  | Some why -> Alcotest.failf "%s: netlists diverge (%s)" what why

(* ------------------------------------------------------------------ *)
(* Decision identity on random single columns ([Helpers.gen_column_spec]:
   tie-heavy fresh inputs, constants and repeated nets), across every
   tie-break and three-policy. *)

let sc_t_combos =
  [
    ("arrival_only/ha", Dp_core.Sc_t.Arrival_only, Dp_core.Sc_t.Ha_finish);
    ("arrival_only/fa3", Dp_core.Sc_t.Arrival_only, Dp_core.Sc_t.Fa_finish);
    ("prefer_high_q/ha", Dp_core.Sc_t.Prefer_high_q, Dp_core.Sc_t.Ha_finish);
    ("prefer_high_q/fa3", Dp_core.Sc_t.Prefer_high_q, Dp_core.Sc_t.Fa_finish);
  ]

let sc_lp_combos =
  [
    ("q_only", Dp_core.Sc_lp.Q_only);
    ("prefer_early", Dp_core.Sc_lp.Prefer_early);
  ]

let sc_t_column_identity spec =
  List.iter
    (fun (label, tie_break, three_policy) ->
      let nl_queue = mk_netlist () in
      let kept_q, carries_q =
        Dp_core.Sc_t.reduce_column ~tie_break ~three_policy nl_queue
          (build_column nl_queue spec)
      in
      let nl_ref = mk_netlist () in
      let kept_r, carries_r =
        Reduce_reference.Sc_t.reduce_column ~tie_break ~three_policy nl_ref
          (build_column nl_ref spec)
      in
      if kept_q <> kept_r then
        Alcotest.failf "sc_t %s: kept lists differ" label;
      if carries_q <> carries_r then
        Alcotest.failf "sc_t %s: carry lists differ" label;
      check_identical ("sc_t " ^ label) nl_queue nl_ref)
    sc_t_combos;
  true

let sc_lp_column_identity spec =
  List.iter
    (fun (label, tie_break) ->
      let nl_queue = mk_netlist () in
      let kept_q, carries_q =
        Dp_core.Sc_lp.reduce_column ~tie_break nl_queue
          (build_column nl_queue spec)
      in
      let nl_ref = mk_netlist () in
      let kept_r, carries_r =
        Reduce_reference.Sc_lp.reduce_column ~tie_break nl_ref
          (build_column nl_ref spec)
      in
      if kept_q <> kept_r then
        Alcotest.failf "sc_lp %s: kept lists differ" label;
      if carries_q <> carries_r then
        Alcotest.failf "sc_lp %s: carry lists differ" label;
      check_identical ("sc_lp " ^ label) nl_queue nl_ref)
    sc_lp_combos;
  true

let mk_prop name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:150 ~print:print_column_spec
       gen_column_spec prop)

(* ------------------------------------------------------------------ *)
(* Whole-matrix identity on fuzz-generated expressions: FA_AOT/FA_ALP
   (queue inside) versus an explicit sweep with the reference reducers,
   over the same lowered matrix. *)

let fuzz_cases n =
  let rng = Random.State.make [| 0x9a7e51 |] in
  List.init n (fun i -> Dp_fuzz.Gen.case rng i)

let matrix_identity () =
  List.iter
    (fun case_ ->
      let case_ = Dp_fuzz.Case.drop_unused_vars case_ in
      let env = Dp_fuzz.Case.env case_ in
      List.iter
        (fun (port, expr, width) ->
          List.iter
            (fun (label, tie_break, three_policy) ->
              let nl_queue = mk_netlist () in
              let m = Dp_bitmatrix.Lower.lower nl_queue env expr ~width in
              Dp_core.Fa_aot.allocate ~tie_break ~three_policy nl_queue m;
              let nl_ref = mk_netlist () in
              let m = Dp_bitmatrix.Lower.lower nl_ref env expr ~width in
              Dp_core.Reduce.sweep nl_ref m ~reducer:(fun nl col ->
                  Reduce_reference.Sc_t.reduce_column ~tie_break ~three_policy
                    nl col);
              check_identical
                (Printf.sprintf "fa_aot %s on %s" label port)
                nl_queue nl_ref)
            sc_t_combos;
          List.iter
            (fun (label, tie_break) ->
              let nl_queue = mk_netlist () in
              let m = Dp_bitmatrix.Lower.lower nl_queue env expr ~width in
              Dp_core.Fa_alp.allocate ~tie_break nl_queue m;
              let nl_ref = mk_netlist () in
              let m = Dp_bitmatrix.Lower.lower nl_ref env expr ~width in
              Dp_core.Reduce.sweep nl_ref m ~reducer:(fun nl col ->
                  Reduce_reference.Sc_lp.reduce_column ~tie_break nl col);
              check_identical
                (Printf.sprintf "fa_alp %s on %s" label port)
                nl_queue nl_ref)
            sc_lp_combos)
        case_.ports)
    (fuzz_cases 25)

(* Whole-netlist identity of the staged and counter strategies against
   [Reduce_reference]'s own drivers (their own sweep and stage loops,
   sort-per-step GPC columns), on the fuzzed matrices and on the two
   tallest crypto designs. *)
let driver_identity () =
  let strategies =
    [
      ("dadda", Dp_core.Dadda.allocate, Reduce_reference.Dadda.allocate);
      ( "dadda_gpc",
        Dp_core.Gpc.allocate_dadda,
        Reduce_reference.Gpc.allocate_dadda );
      ("sc_t_gpc", Dp_core.Gpc.allocate_t, Reduce_reference.Gpc.allocate_t);
      ("sc_lp_gpc", Dp_core.Gpc.allocate_lp, Reduce_reference.Gpc.allocate_lp);
    ]
  in
  let same what env expr ~width =
    List.iter
      (fun (label, library, reference) ->
        let run allocate =
          let nl = mk_netlist () in
          allocate nl (Dp_bitmatrix.Lower.lower nl env expr ~width);
          nl
        in
        check_identical
          (Printf.sprintf "%s on %s" label what)
          (run library) (run reference))
      strategies
  in
  List.iter
    (fun case_ ->
      let case_ = Dp_fuzz.Case.drop_unused_vars case_ in
      let env = Dp_fuzz.Case.env case_ in
      List.iter
        (fun (port, expr, width) -> same port env expr ~width)
        case_.ports)
    (fuzz_cases 25);
  List.iter
    (fun (d : Dp_designs.Design.t) -> same d.name d.env d.expr ~width:d.width)
    [ Dp_designs.Crypto.mul_mod_diag; Dp_designs.Crypto.mac_chain ]

(* ------------------------------------------------------------------ *)
(* Bit-parallel simulation: every lane of [Bitsim.run_lanes] must equal a
   scalar [Simulator_reference.run] of the same assignment, net for net,
   and the declared outputs must match the bignum reference evaluation.
   FA_AOT builds FA/HA trees; the three GPC strategies add
   C73/C63/C53/C42 cells, which [Bitsim] evaluates through their recipe
   bodies and [Simulator_reference] through their arithmetic, so the two
   cross-check each other there.  Netlists corrupted by every [Inject]
   class are compared too: there a cell may read its own or a later net,
   or a dangling one. *)

let unsigned_cases n =
  let config =
    { Dp_fuzz.Gen.default_config with allow_signed = false; multi_every = 0 }
  in
  let rng = Random.State.make [| 0xb175 |] in
  List.init n (fun i -> Dp_fuzz.Gen.case ~config rng i)

(* One sweep of [lanes] random assignments against a scalar run of each.
   A corrupted netlist can make both simulators raise, so the outcomes
   are compared, exceptions included (by constructor: the messages name
   different simulators).  Returns the sweep's words and the
   assignments. *)
let same_lanes ?lanes rng label netlist =
  let widths =
    List.map (fun (name, nets) -> (name, Array.length nets)) (Netlist.inputs netlist)
  in
  let lanes =
    match lanes with Some l -> l | None -> 1 + Random.State.int rng 64
  in
  let alists =
    Array.init lanes (fun _ ->
        List.map (fun (name, w) -> (name, Random.State.int rng (1 lsl w))) widths)
  in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception e -> Error (Printexc.exn_slot_name e)
  in
  let packed =
    outcome (fun () ->
        Dp_sim.Bitsim.run_lanes netlist ~lanes ~assign:(fun lane name ->
            List.assoc name alists.(lane)))
  in
  for lane = 0 to lanes - 1 do
    let scalar =
      outcome (fun () ->
          Simulator_reference.run netlist ~assign:(fun name ->
              List.assoc name alists.(lane)))
    in
    match (packed, scalar) with
    | Ok values, Ok scalar ->
      Array.iteri
        (fun net v ->
          if Dp_sim.Bitsim.lane_bit values net ~lane <> v then
            Alcotest.failf "%s: net %d, lane %d/%d: bitsim disagrees" label net
              lane lanes)
        scalar
    | Error e, Error e' when e = e' -> ()
    | _ ->
      let show = function Ok _ -> "returns" | Error e -> "raises " ^ e in
      Alcotest.failf "%s: lane %d/%d: bitsim %s, simulator %s" label lane lanes
        (show packed) (show scalar)
  done;
  (packed, alists)

let bitsim_matches_scalar () =
  let rng = Random.State.make [| 0x51d |] in
  let counters = Hashtbl.create 4 in
  List.iter
    (fun case_ ->
      match Dp_fuzz.Case.single_port case_ with
      | None -> ()
      | Some (expr, width) ->
        let env = Dp_fuzz.Case.env (Dp_fuzz.Case.drop_unused_vars case_) in
        List.iter
          (fun strategy ->
            let r = Dp_flow.Synth.run strategy env expr ~width in
            let netlist = r.netlist in
            for id = 0 to Netlist.cell_count netlist - 1 do
              let kind = Netlist.cell_kind netlist id in
              if Dp_tech.Cell_kind.is_counter kind then
                Hashtbl.replace counters kind ()
            done;
            match same_lanes rng (Dp_flow.Strategy.name strategy) netlist with
            | Error e, _ ->
              Alcotest.failf "%s: bitsim raises %s"
                (Dp_flow.Strategy.name strategy) e
            | Ok values, alists ->
              Array.iteri
                (fun lane alist ->
                  let packed =
                    Dp_sim.Bitsim.output_value netlist values ~lane r.output
                  in
                  let big =
                    Dp_fuzz.Bigval.eval
                      (fun x -> Dp_fuzz.Bigval.of_int (List.assoc x alist))
                      expr
                  in
                  checki "output vs bignum"
                    (Dp_fuzz.Bigval.to_int_mod ~width big)
                    packed)
                alists)
          Dp_flow.Strategy.[ Fa_aot; Sc_t_gpc; Sc_lp_gpc; Dadda_gpc ])
    (unsigned_cases 15);
  List.iter
    (fun kind ->
      checkb
        (Dp_tech.Cell_kind.name kind ^ " cells compared")
        true (Hashtbl.mem counters kind))
    Dp_tech.Cell_kind.[ C42; C53; C63; C73 ];
  (* the Dadda 4:2 tree is the victim that holds counter cells *)
  let env = Dp_expr.Env.of_widths [ ("x", 5); ("y", 4); ("z", 6) ] in
  let victims =
    [
      (Dp_flow.Strategy.Fa_aot, "x*y + z");
      (Dp_flow.Strategy.Dadda_gpc, "x*y + y*z + z*x");
    ]
  in
  List.iter
    (fun m ->
      let applied = ref false in
      List.iter
        (fun (strategy, src) ->
          for seed = 0 to 4 do
            let nl =
              (Dp_flow.Synth.run strategy env (Dp_expr.Parse.expr src)).netlist
            in
            match Dp_verify.Inject.apply ~seed nl m with
            | None -> ()
            | Some descr ->
              applied := true;
              ignore (same_lanes rng (Dp_verify.Inject.name m ^ ": " ^ descr) nl)
          done)
        victims;
      checkb (Dp_verify.Inject.name m ^ " applied") true !applied)
    Dp_verify.Inject.all;
  (* Two corruptions that words kept from a cell's first evaluation would
     answer stale: an FA whose carry-in reads its own sum, and the net just
     before an FA's outputs claiming the FA's carry while the FA reads it. *)
  let and_then_fa () =
    let n = mk_netlist () in
    let x = Netlist.add_input n "x" ~width:2 in
    let g = Netlist.and_n n [ x.(0); x.(1) ] in
    let s, c = Netlist.fa n x.(0) x.(1) g in
    Netlist.set_output n "o" [| g; s; c |];
    (n, g, s)
  in
  let n, _, s = and_then_fa () in
  Netlist.Mutate.set_cell_input n ~cell:1 ~pin:2 s;
  ignore (same_lanes ~lanes:64 rng "an FA's carry-in reads its own sum" n);
  let n, g, _ = and_then_fa () in
  Netlist.Mutate.set_driver n g (Netlist.From_cell { cell = 1; port = 1 });
  ignore (same_lanes ~lanes:64 rng "the net before an FA claims its carry" n)

(* The batched equivalence checker and the Monte-Carlo estimators went
   bit-parallel; their results for a fixed seed must equal a scalar
   recomputation that replays the identical random draws. *)

let equiv_batched_matches_scalar () =
  List.iter
    (fun case_ ->
      match Dp_fuzz.Case.single_port case_ with
      | None -> ()
      | Some (expr, width) ->
        let env = Dp_fuzz.Case.env (Dp_fuzz.Case.drop_unused_vars case_) in
        let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_alp env expr ~width in
        (match
           Dp_sim.Equiv.check_random ~seed:0xE0 ~trials:150 r.netlist expr
             ~output:r.output ~width
         with
        | Ok () -> ()
        | Error m ->
          Alcotest.failf "batched check_random found a false mismatch: %a"
            Dp_sim.Equiv.pp_mismatch m);
        (* Scalar replay of the same seeded vector stream. *)
        let rng = Random.State.make [| 0xE0 |] in
        let widths =
          List.map
            (fun (name, nets) -> (name, Array.length nets))
            (Netlist.inputs r.netlist)
        in
        for _ = 1 to 150 do
          let alist =
            List.map
              (fun (name, w) -> (name, Random.State.int rng (1 lsl w)))
              widths
          in
          match
            Simulator_reference.check_assignment r.netlist expr ~output:r.output
              ~width alist
          with
          | Ok () -> ()
          | Error m ->
            Alcotest.failf "scalar replay disagrees: %a" Dp_sim.Equiv.pp_mismatch
              m
        done)
    (unsigned_cases 8)

let scalar_toggle_rates ~seed ~vectors netlist =
  (* Replays [Monte_carlo]'s exact draw order (inputs in declaration
     order, bits LSB-first) through the scalar simulator. *)
  let rng = Random.State.make [| seed |] in
  let n = Netlist.net_count netlist in
  let toggles = Array.make n 0 in
  let ones = Array.make n 0 in
  let prev = Array.make n false in
  for v = 0 to vectors - 1 do
    let values = Hashtbl.create 16 in
    List.iter
      (fun (name, nets) ->
        let value = ref 0 in
        Array.iteri
          (fun bit net ->
            if Random.State.float rng 1.0 < Netlist.prob netlist net then
              value := !value lor (1 lsl bit))
          nets;
        Hashtbl.replace values name !value)
      (Netlist.inputs netlist);
    let sim =
      Simulator_reference.run netlist ~assign:(fun name -> Hashtbl.find values name)
    in
    Array.iteri
      (fun net bit ->
        if bit then ones.(net) <- ones.(net) + 1;
        if v > 0 && bit <> prev.(net) then toggles.(net) <- toggles.(net) + 1;
        prev.(net) <- bit)
      sim
  done;
  ( Array.map (fun t -> float_of_int t /. float_of_int (vectors - 1)) toggles,
    Array.map (fun o -> float_of_int o /. float_of_int vectors) ones )

let monte_carlo_matches_scalar () =
  let env = Dp_expr.Env.of_widths [ ("a", 5); ("b", 4); ("c", 3) ] in
  let expr = Dp_expr.Parse.expr "a*b + 3*c - b" in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_alp env expr ~width:11 in
  (* 150 vectors spans two 64-lane blocks plus a 22-lane tail, covering
     the partial-block masking and the block-boundary toggle. *)
  let vectors = 150 and seed = 0x3c4 in
  let got = Dp_sim.Monte_carlo.toggle_rates ~seed ~vectors r.netlist in
  let probs = Dp_sim.Monte_carlo.measured_prob ~seed ~vectors r.netlist in
  let want_rates, want_probs = scalar_toggle_rates ~seed ~vectors r.netlist in
  checki "vector count" vectors got.vectors;
  Array.iteri
    (fun net want ->
      if got.toggle_rate.(net) <> want then
        Alcotest.failf "net %d: toggle rate %g, scalar replay says %g" net
          got.toggle_rate.(net) want)
    want_rates;
  Array.iteri
    (fun net want ->
      if probs.(net) <> want then
        Alcotest.failf "net %d: measured prob %g, scalar replay says %g" net
          probs.(net) want)
    want_probs

(* ------------------------------------------------------------------ *)
(* Net_queue and the binary heap it replaced ([Net_heap_reference]):
   both drain in [compare_nets] order under every strategy's key pair,
   pop the same nets as a sorted model under arbitrary push/pop
   interleavings, and error on empty.  The nets tie constantly: three
   arrivals, probabilities whose |q| coincide in pairs, p = 0.5 nets
   (|q| = 0) and both constants (|q| = 0.5). *)

let queue_orders =
  List.map
    (fun tb ->
      ((fun nl -> Dp_core.Sc_t.compare_nets nl tb), Dp_core.Sc_t.queue_keys tb))
    [ Dp_core.Sc_t.Arrival_only; Dp_core.Sc_t.Prefer_high_q ]
  @ List.map
      (fun tb ->
        ( (fun nl -> Dp_core.Sc_lp.compare_nets nl tb),
          Dp_core.Sc_lp.queue_keys tb ))
      [ Dp_core.Sc_lp.Q_only; Dp_core.Sc_lp.Prefer_early ]

let queue_drain_sorts =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"net_heap drain = sort" ~count:200
       ~print:print_column_spec gen_column_spec (fun spec ->
         let nl = mk_netlist () in
         let nets =
           (Netlist.const nl false :: build_column nl spec)
           @ [ Netlist.const nl true ]
         in
         List.for_all
           (fun (cmp, (k1, k2)) ->
             let sorted = List.sort (cmp nl) nets in
             Dp_core.Net_queue.drain (Dp_core.Net_queue.of_list ~k1 ~k2 nl nets)
             = sorted
             && Net_heap_reference.drain
                  (Net_heap_reference.of_list ~k1 ~k2 nl nets)
                = sorted)
           queue_orders))

let queue_pool nl =
  let spec =
    List.concat_map
      (fun a -> List.map (fun p -> Fresh (a, p)) [ 0.05; 0.2; 0.5; 0.8; 0.95 ])
      [ 0.0; 1.0; 2.0 ]
  in
  Array.of_list
    ((Netlist.const nl false :: build_column nl (spec @ spec))
    @ [ Netlist.const nl true ])

(* Each case starts from [of_list] over a random sub-multiset of the pool,
   so pops alternate between the sorted run and the FIFO of pushes, and
   pushes land before, at and after the FIFO's tail. *)
let queue_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"net_heap pop tracks sorted model" ~count:200
       ~print:QCheck2.Print.(pair (list int) (list (option int)))
       (* [Some i] pushes net i of the pool, [None] pops (ignored when
          empty). *)
       QCheck2.Gen.(
         pair
           (list_size (int_range 0 40) (int_range 0 31))
           (list_size (int_range 0 300) (option (int_range 0 31))))
       (fun (start, ops) ->
         let nl = mk_netlist () in
         let pool = queue_pool nl in
         let start = List.map (Array.get pool) start in
         List.for_all
           (fun (cmp, (k1, k2)) ->
             let q = Dp_core.Net_queue.of_list ~k1 ~k2 nl start in
             let h = Net_heap_reference.of_list ~k1 ~k2 nl start in
             let model = ref (List.sort (cmp nl) start) in
             let same_length () =
               let n = List.length !model in
               Dp_core.Net_queue.length q = n && Net_heap_reference.length h = n
             in
             same_length ()
             && List.for_all
                  (fun op ->
                    match op with
                    | Some i ->
                      Dp_core.Net_queue.push q pool.(i);
                      Net_heap_reference.push h pool.(i);
                      model := List.merge (cmp nl) [ pool.(i) ] !model;
                      same_length ()
                    | None -> (
                      match !model with
                      | [] -> same_length ()
                      | m :: rest ->
                        model := rest;
                        let from_queue = Dp_core.Net_queue.pop q in
                        let from_heap = Net_heap_reference.pop h in
                        from_queue = m && from_heap = m))
                  ops)
           queue_orders))

let queue_empty_pop () =
  let nl = mk_netlist () in
  let q = Dp_core.Net_queue.of_list ~k1:Arrival ~k2:Zero nl [] in
  checki "fresh queue is empty" 0 (Dp_core.Net_queue.length q);
  Dp_core.Net_queue.push q (Netlist.const nl false);
  ignore (Dp_core.Net_queue.pop q);
  (match Dp_core.Net_queue.pop q with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "queue pop on empty returned %d" v);
  let h = Net_heap_reference.of_list ~k1:Arrival ~k2:Zero nl [] in
  match Net_heap_reference.pop h with
  | exception Invalid_argument _ -> ()
  | v -> Alcotest.failf "heap pop on empty returned %d" v

(* Decision identity at full height: the tallest column of the lowered
   MulModDiag256 matrix (about 256 addends), reduced by every SC_T, SC_LP
   and GPC combination, against the sort-per-step references. *)

let tallest_column_identity () =
  let d = Dp_designs.Crypto.mul_mod_diag in
  let nl = mk_netlist () in
  let m = Dp_bitmatrix.Lower.lower nl d.env d.expr ~width:d.width in
  let col =
    List.fold_left
      (fun acc j ->
        let c = Dp_bitmatrix.Matrix.column m j in
        if List.length c > List.length acc then c else acc)
      []
      (List.init (Dp_bitmatrix.Matrix.width m) Fun.id)
  in
  checkb "full height" true (List.length col >= 225);
  let lowered = Marshal.to_string nl [] in
  let copy () : Netlist.t = Marshal.from_string lowered 0 in
  let same label queue reference =
    let nl_queue = copy () and nl_ref = copy () in
    if queue nl_queue col <> reference nl_ref col then
      Alcotest.failf "%s: kept or carry lists differ" label;
    check_identical label nl_queue nl_ref
  in
  let pair f nl col = let kept, carries = f nl col in (kept, carries, []) in
  List.iter
    (fun (label, tie_break, three_policy) ->
      same ("sc_t " ^ label)
        (pair (Dp_core.Sc_t.reduce_column ~tie_break ~three_policy))
        (pair (Reduce_reference.Sc_t.reduce_column ~tie_break ~three_policy)))
    sc_t_combos;
  List.iter
    (fun (label, tie_break) ->
      same ("sc_lp " ^ label)
        (pair (Dp_core.Sc_lp.reduce_column ~tie_break))
        (pair (Reduce_reference.Sc_lp.reduce_column ~tie_break)))
    sc_lp_combos;
  same "gpc t" Dp_core.Gpc.reduce_column_t Reduce_reference.Gpc.reduce_column_t;
  same "gpc lp" Dp_core.Gpc.reduce_column_lp
    Reduce_reference.Gpc.reduce_column_lp

(* ------------------------------------------------------------------ *)
(* Netlist name index: lookups stay correct, duplicates still raise, and
   declaration order survives the hashtable. *)

let netlist_name_index () =
  let netlist = mk_netlist () in
  let names = List.init 40 (fun i -> Printf.sprintf "in%02d" i) in
  List.iter
    (fun name -> ignore (Netlist.add_input netlist name ~width:2))
    names;
  check
    Alcotest.(list string)
    "inputs keep declaration order" names
    (List.map fst (Netlist.inputs netlist));
  List.iteri
    (fun i name ->
      let nets = Netlist.add_input netlist (name ^ "_chk") ~width:1 in
      Netlist.set_output netlist (Printf.sprintf "out%02d" i) nets)
    names;
  List.iteri
    (fun i _ ->
      let nets = Netlist.find_output netlist (Printf.sprintf "out%02d" i) in
      checki (Printf.sprintf "out%02d width" i) 1 (Array.length nets))
    names;
  check
    Alcotest.(list string)
    "outputs keep declaration order"
    (List.init 40 (fun i -> Printf.sprintf "out%02d" i))
    (List.map fst (Netlist.outputs netlist));
  (match Netlist.add_input netlist "in00" ~width:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate input accepted");
  match Netlist.set_output netlist "out00" (Netlist.find_output netlist "out01")
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate output accepted"

(* FA_random's one-pass selection: still a valid reduction (at most two
   kept per column) and still deterministic under a fixed seed. *)

let sc_random_deterministic () =
  let run seed =
    let rng = Random.State.make [| seed |] in
    let netlist = mk_netlist () in
    let col =
      build_column netlist
        (List.init 23 (fun i -> Fresh (float_of_int (i mod 5), 0.5)))
    in
    let kept, carries = Dp_core.Sc_random.reduce_column rng netlist col in
    (kept, carries, netlist)
  in
  let kept1, carries1, nl1 = run 7 in
  let kept2, carries2, nl2 = run 7 in
  checkb "kept count <= 2" true (List.length kept1 <= 2);
  (* 23 addends: ten FAs down to three, one HA to finish — 11 carries. *)
  checki "carry count" 11 (List.length carries1);
  check Alcotest.(list int) "same seed, same kept" kept1 kept2;
  check Alcotest.(list int) "same seed, same carries" carries1 carries2;
  check_identical "sc_random determinism" nl1 nl2

(* ------------------------------------------------------------------ *)
(* Allocation budgets of the flat netlist arena, in minor words per call.
   The record-based builders allocated 39 words per [fa] and 35 per fresh
   two-input AND, and [Stats.of_netlist] about 50k words per crypto
   netlist; the arena writes annotations straight into its float columns.
   A counter call allocated 109-165 words while each pin delay came back
   as an option and the popcount probabilities went through closures; it
   now reads a delay table and allocates its pin array, result tuple and
   popcount distribution (10-21 words).  Minor words are counted, not
   time, so the budgets hold on any machine and under both build
   profiles. *)

let words_per_call ~calls f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int calls

let builder_allocation () =
  let nl = mk_netlist () in
  let calls = 4096 in
  let a = Netlist.add_input nl "a" ~width:(3 * calls) in
  let b = Netlist.add_input nl "b" ~width:calls in
  let fa =
    words_per_call ~calls (fun () ->
        for i = 0 to calls - 1 do
          ignore (Netlist.fa nl a.(3 * i) a.((3 * i) + 1) a.((3 * i) + 2))
        done)
  in
  let ha =
    words_per_call ~calls (fun () ->
        for i = 0 to calls - 1 do
          ignore (Netlist.ha nl a.(3 * i) b.(i))
        done)
  in
  let and2 =
    words_per_call ~calls (fun () ->
        for i = 0 to calls - 1 do
          ignore (Netlist.and2 nl a.((3 * i) + 1) b.(i))
        done)
  in
  (* A counter call includes its pin array and result tuple, as in the
     GPC reducers. *)
  let counter what build arity =
    let pins = Netlist.add_input nl what ~width:(arity * calls) in
    words_per_call ~calls (fun () ->
        for i = 0 to calls - 1 do
          ignore (build nl (Array.sub pins (arity * i) arity))
        done)
  in
  let within what budget words =
    if words > budget then
      Alcotest.failf "%s allocates %.1f minor words per call (budget %.0f)"
        what words budget
  in
  within "fa" 10.0 fa;
  within "ha" 10.0 ha;
  within "fresh and2" 10.0 and2;
  List.iter
    (fun (what, build, arity) -> within what 30.0 (counter what build arity))
    [
      ("c42", Netlist.c42, 5);
      ("c53", Netlist.c53, 5);
      ("c63", Netlist.c63, 6);
      ("c73", Netlist.c73, 7);
    ];
  checki "one cell per call" (7 * calls) (Netlist.cell_count nl)

let stats_allocation () =
  let d = Dp_designs.Crypto.mul_mod_diag in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let words = words_per_call ~calls:1 (fun () -> ignore (Stats.of_netlist r.netlist)) in
  if words >= 1000.0 then
    Alcotest.failf "Stats.of_netlist allocates %.0f minor words on %d cells"
      words (Netlist.cell_count r.netlist)

(* FA_AOT/FA_ALP on the lowered MulModDiag256 matrix: 161-163k words
   under the binary heap, which cached two float keys per net; the queue
   reads its keys from the netlist. *)
let reduce_allocation () =
  let d = Dp_designs.Crypto.mul_mod_diag in
  let nl = mk_netlist () in
  let m = Dp_bitmatrix.Lower.lower nl d.env d.expr ~width:d.width in
  let lowered = Marshal.to_string (nl, m) [] in
  List.iter
    (fun (what, allocate) ->
      let (nl, m) : Netlist.t * Dp_bitmatrix.Matrix.t =
        Marshal.from_string lowered 0
      in
      let words = words_per_call ~calls:1 (fun () -> allocate nl m) in
      if words >= 175_000.0 then
        Alcotest.failf "%s allocates %.0f minor words on MulModDiag256" what
          words)
    [
      ("fa_aot", fun nl m -> Dp_core.Fa_aot.allocate nl m);
      ("fa_alp", fun nl m -> Dp_core.Fa_alp.allocate nl m);
    ]

let suite =
  [
    mk_prop "sc_t queue = reference on random columns" sc_t_column_identity;
    mk_prop "sc_lp queue = reference on random columns" sc_lp_column_identity;
    case "fa_aot/fa_alp heap = reference on fuzzed matrices" matrix_identity;
    case "dadda/gpc drivers = reference on fuzzed and crypto matrices"
      driver_identity;
    case "bitsim lanes = scalar simulator and bignum" bitsim_matches_scalar;
    case "batched equiv = scalar replay" equiv_batched_matches_scalar;
    case "monte carlo bit-parallel = scalar replay" monte_carlo_matches_scalar;
    queue_drain_sorts;
    queue_model;
    case "net_heap empty pop raises" queue_empty_pop;
    case "heap = reference on the tallest MulModDiag256 column"
      tallest_column_identity;
    case "netlist name index" netlist_name_index;
    case "sc_random one-pass selection" sc_random_deterministic;
    case "netlist: fa/ha/and2 allocation budget" builder_allocation;
    case "stats: allocation budget on MulModDiag256" stats_allocation;
    case "reduce: allocation budget on MulModDiag256" reduce_allocation;
  ]
