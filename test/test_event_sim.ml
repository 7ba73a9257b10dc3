open Dp_netlist
open Dp_sim
open Helpers

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_orders () =
  let h = Heap.create ~dummy:(-1) in
  List.iter (fun (t, v) -> Heap.push h t v) [ (3.0, 3); (1.0, 1); (2.0, 2); (0.5, 0) ];
  let order = List.init 4 (fun _ -> snd (Heap.pop h)) in
  check (Alcotest.list Alcotest.int) "sorted by time" [ 0; 1; 2; 3 ] order;
  checkb "empty" true (Heap.is_empty h)

let test_heap_interleaved () =
  let h = Heap.create ~dummy:(-1) in
  let rng = Random.State.make [| 4 |] in
  let last = ref neg_infinity in
  for i = 0 to 199 do
    Heap.push h (Random.State.float rng 100.0) i
  done;
  for _ = 0 to 99 do
    let t, _ = Heap.pop h in
    checkb "nondecreasing" true (t >= !last);
    last := t;
    Heap.push h (!last +. Random.State.float rng 10.0) 0
  done;
  checki "length" 200 (Heap.length h)

let test_heap_empty_pop () =
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop: empty")
    (fun () -> ignore (Heap.pop (Heap.create ~dummy:0)))

(* ------------------------------------------------------------------ *)
(* Event-driven simulation *)

(* After settling, the event simulator must agree with the functional
   simulator on every net, for every strategy's netlist. *)
let test_settles_to_functional () =
  let d = Dp_designs.Catalog.poly_mixed in
  List.iter
    (fun strategy ->
      let r = Dp_flow.Synth.run strategy d.env d.expr ~width:d.width in
      let t = Event_sim.create r.netlist in
      let rng = Random.State.make [| 77 |] in
      let widths =
        List.map
          (fun (name, nets) -> (name, Array.length nets))
          (Netlist.inputs r.netlist)
      in
      let draw () =
        let alist =
          List.map (fun (v, w) -> (v, Random.State.int rng (1 lsl w))) widths
        in
        assign_of alist
      in
      Event_sim.initialize t ~assign:(draw ());
      for _ = 1 to 25 do
        let assign = draw () in
        Event_sim.apply_vector t ~assign;
        let reference = Simulator_reference.run r.netlist ~assign in
        Array.iteri
          (fun net expected ->
            if t.values.(net) <> if expected then -1L else 0L then
              Alcotest.failf "%s: net %d settled wrong"
                (Dp_flow.Strategy.name strategy) net)
          reference
      done)
    [ Dp_flow.Strategy.Fa_aot; Dp_flow.Strategy.Wallace; Dp_flow.Strategy.Conventional ]

let test_single_cell_glitch_free () =
  (* one FA whose inputs all switch at t = 0 settles with at most one
     transition per output per vector *)
  let n = mk_netlist () in
  let bits = Netlist.add_input n "v" ~width:3 in
  let s, c = Netlist.fa n bits.(0) bits.(1) bits.(2) in
  Netlist.set_output n "o" [| s; c |];
  let rates = Event_sim.transition_rates ~vectors:300 n in
  checkb "sum <= 1 transition/vector" true (rates.transition_rate.(s) <= 1.0 +. 1e-9);
  checkb "carry <= 1 transition/vector" true (rates.transition_rate.(c) <= 1.0 +. 1e-9)

let test_classic_glitch_pulse () =
  (* c = x AND (NOT x): functionally constant 0, but the NOT's delay lets
     a pulse through whenever x rises — invisible to the zero-delay model *)
  let n = mk_netlist () in
  let x = (Netlist.add_input n "x" ~width:1).(0) in
  let g = Netlist.and_n n [ x; Netlist.not_ n x ] in
  Netlist.set_output n "o" [| g |];
  let vectors = 2000 in
  let timed = Event_sim.transition_rates ~vectors n in
  let zero = Monte_carlo.toggle_rates ~vectors n in
  checkf "no zero-delay toggles" 0.0 zero.toggle_rate.(g);
  (* x rises on ~1/4 of vector boundaries; each rise makes 2 transitions *)
  checkb
    (Printf.sprintf "glitches seen (rate %.3f)" timed.transition_rate.(g))
    true
    (timed.transition_rate.(g) > 0.3)

let test_glitch_factor_at_least_one () =
  let d = Dp_designs.Catalog.x3 in
  let r = Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width in
  let factor = Event_sim.glitch_factor r.netlist ~vectors:400 ~seed:5 in
  checkb (Printf.sprintf "factor %.2f >= 1" factor) true (factor >= 0.99)

let test_transition_rates_validation () =
  Alcotest.check_raises "needs 2"
    (Invalid_argument "Event_sim.transition_rates: need >= 2 vectors") (fun () ->
      ignore (Event_sim.transition_rates ~vectors:1 (mk_netlist ())))

let suite =
  [
    case "heap: orders by time" test_heap_orders;
    case "heap: interleaved push/pop" test_heap_interleaved;
    case "heap: empty pop raises" test_heap_empty_pop;
    case "event sim settles to the functional value" test_settles_to_functional;
    case "single FA is glitch-free" test_single_cell_glitch_free;
    case "x AND NOT x pulses under real delays" test_classic_glitch_pulse;
    case "glitch factor >= 1 on an FA tree" test_glitch_factor_at_least_one;
    case "input validation" test_transition_rates_validation;
  ]
