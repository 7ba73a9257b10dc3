open Dp_netlist

(* Event-driven timing simulation under the transport-delay model: every
   input change of a cell schedules the freshly computed output values onto
   the output nets after the technology's pin-to-pin delay, and every net
   change — including the transient glitches the zero-delay model cannot
   see — is counted.  Inputs switch together at t = 0 of each new vector
   and the netlist is combinational, so activity always quiesces. *)

let fanout_map netlist =
  (* net -> cells it feeds, the latest cell first, once per pin *)
  let map = Array.make (Netlist.net_count netlist) [] in
  for id = 0 to Netlist.cell_count netlist - 1 do
    for k = 0 to Netlist.pin_count netlist id - 1 do
      let input = Netlist.pin netlist id k in
      map.(input) <- id :: map.(input)
    done
  done;
  map

type t = {
  netlist : Netlist.t;
  fanout : int list array;
  values : int64 array;
  transitions : int array;
}

let create netlist =
  {
    netlist;
    fanout = fanout_map netlist;
    values = Array.make (Netlist.net_count netlist) 0L;
    transitions = Array.make (Netlist.net_count netlist) 0;
  }

(* A net's value as a [Bitsim] word: every lane holds the one bit. *)
let word b = if b then Int64.minus_one else 0L

let input_word assign var bit = word ((assign var lsr bit) land 1 = 1)

(* Establish a consistent initial state with one functional evaluation;
   the first vector is not counted as switching activity. *)
let initialize t ~assign =
  let values = Bitsim.run t.netlist ~assign:(input_word assign) in
  Array.blit values 0 t.values 0 (Array.length values)

(* Settle the netlist from the given input assignment, counting every net
   transition.

   Transport-delay semantics: when a cell input changes at time T, the
   cell's outputs are computed from the values visible at T and those
   values are *scheduled* onto the output nets at T + delay.  Capturing
   the value at schedule time (rather than re-evaluating at delivery time)
   is what lets a fast pulse — a glitch — propagate.  Events delivered to
   the same net at the same instant are coalesced, the latest-scheduled
   value winning, so simultaneous input changes produce one transition. *)
let apply_vector t ~assign =
  let tech = Netlist.tech t.netlist in
  let queue = Heap.create ~dummy:(0, 0, 0L) in
  let outs = Array.make 3 0L in
  let seq = ref 0 in
  let set net value time =
    if not (Int64.equal t.values.(net) value) then begin
      t.values.(net) <- value;
      t.transitions.(net) <- t.transitions.(net) + 1;
      List.iter
        (fun cell ->
          let kind = Netlist.cell_kind t.netlist cell in
          Bitsim.eval_cell t.netlist cell kind t.values outs;
          for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
            incr seq;
            Heap.push queue
              (time +. Dp_tech.Tech.delay tech kind ~port)
              (!seq, Netlist.output_net t.netlist cell ~port, outs.(port))
          done)
        t.fanout.(net)
    end
  in
  (* primary inputs switch at t = 0; constants were fixed at init *)
  for net = 0 to Netlist.net_count t.netlist - 1 do
    match Netlist.driver t.netlist net with
    | Netlist.From_input { var; bit } -> set net (input_word assign var bit) 0.0
    | Netlist.From_const _ | Netlist.From_cell _ -> ()
  done;
  let pending = Hashtbl.create 16 in
  while not (Heap.is_empty queue) do
    (* drain one timestamp, coalescing per net by schedule order *)
    let now, _ = Heap.peek queue in
    Hashtbl.reset pending;
    let continue = ref true in
    while !continue do
      if Heap.is_empty queue then continue := false
      else
        let time, _ = Heap.peek queue in
        if time > now +. 1e-12 then continue := false
        else begin
          let _, (s, net, value) = Heap.pop queue in
          match Hashtbl.find_opt pending net with
          | Some (s0, _) when s0 > s -> ()
          | Some _ | None -> Hashtbl.replace pending net (s, value)
        end
    done;
    Hashtbl.iter (fun net (_, value) -> set net value now) pending
  done

type rates = {
  vectors : int;
  transition_rate : float array;  (* per net: transitions / vector *)
}

let transition_rates ?(seed = 0x911c4) ~vectors netlist =
  if vectors < 2 then invalid_arg "Event_sim.transition_rates: need >= 2 vectors";
  let t = create netlist in
  let rng = Random.State.make [| seed |] in
  let draw () =
    let values = Hashtbl.create 16 in
    List.iter
      (fun (name, nets) ->
        let v = ref 0 in
        Array.iteri
          (fun bit net ->
            if Random.State.float rng 1.0 < Netlist.prob netlist net then
              v := !v lor (1 lsl bit))
          nets;
        Hashtbl.replace values name !v)
      (Netlist.inputs netlist);
    fun name -> Hashtbl.find values name
  in
  initialize t ~assign:(draw ());
  for _ = 2 to vectors do
    apply_vector t ~assign:(draw ())
  done;
  {
    vectors;
    transition_rate =
      Array.map
        (fun n -> float_of_int n /. float_of_int (vectors - 1))
        t.transitions;
  }

let glitch_factor netlist ~vectors ~seed =
  (* ratio of timed transitions (with glitches) to zero-delay transitions;
     1.0 means glitch-free *)
  let timed = transition_rates ~seed ~vectors netlist in
  let zero = Monte_carlo.toggle_rates ~seed ~vectors netlist in
  let timed_e = Monte_carlo.switching_energy netlist timed.transition_rate in
  let zero_e = Monte_carlo.switching_energy netlist zero.toggle_rate in
  if zero_e = 0.0 then 1.0 else timed_e /. zero_e
