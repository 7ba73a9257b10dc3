open Dp_netlist

(* Cycle-time-driven pipeline planning (ASAP staging).

   Behavioral synthesis fixes a cycle time and asks how a combinational
   datapath spreads over control steps (the paper's Sec. 1).  This planner
   assigns every net a pipeline stage and an intra-stage arrival so that no
   stage's combinational depth exceeds the cycle time: a cell computes in
   the latest stage any of its operands is produced in, unless its output
   would overrun the cycle — then its operands are registered at the
   boundary and it computes at the start of the next stage.

   The plan is analytic (no register cells are inserted into the netlist):
   it reports the latency, the per-stage critical delays, and the total
   pipeline register bits — a net produced in stage s and last consumed in
   stage s' needs s' − s register bits, shared by all its consumers. *)

type plan = {
  cycle_time : float;
  latency : int;  (* pipeline stages; 1 = purely combinational *)
  stage_of_net : int array;
  local_arrival : float array;  (* arrival within the net's stage *)
  stage_delay : float array;  (* critical intra-stage delay, length latency *)
  register_bits : int;
}

let eps = 1e-9

(* [acc] raised to the delay of [kind]'s slowest output port. *)
let slowest_port tech kind acc =
  let acc = ref acc in
  for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
    acc := Float.max !acc (Dp_tech.Tech.delay tech kind ~port)
  done;
  !acc

(* The smallest feasible cycle time: every cell must fit inside one stage,
   and every primary input's intra-stage arrival is its arrival modulo the
   cycle — safe as long as no single cell is slower than the cycle. *)
let min_cycle_time netlist =
  let tech = Netlist.tech netlist in
  let worst = ref 0.0 in
  for cell = 0 to Netlist.cell_count netlist - 1 do
    worst := slowest_port tech (Netlist.cell_kind netlist cell) !worst
  done;
  !worst

let plan netlist ~cycle_time =
  if cycle_time <= 0.0 then invalid_arg "Pipeline.plan: cycle_time must be > 0";
  let floor_mct = min_cycle_time netlist in
  if cycle_time < floor_mct -. eps then
    invalid_arg
      (Printf.sprintf
         "Pipeline.plan: cycle time %.3f below the slowest cell (%.3f)"
         cycle_time floor_mct);
  let tech = Netlist.tech netlist in
  let n = Netlist.net_count netlist in
  let stage = Array.make n 0 in
  let local = Array.make n 0.0 in
  (* nets are in topological order *)
  for net = 0 to n - 1 do
    match Netlist.driver netlist net with
    | Netlist.From_input _ ->
      let t = Netlist.arrival netlist net in
      let s = int_of_float ((t +. eps) /. cycle_time) in
      stage.(net) <- s;
      local.(net) <- t -. (float_of_int s *. cycle_time)
    | Netlist.From_const _ ->
      stage.(net) <- 0;
      local.(net) <- 0.0
    | Netlist.From_cell { cell; port } ->
      let kind = Netlist.cell_kind netlist cell in
      let pins = Netlist.pin_count netlist cell in
      let s_in = ref 0 in
      for k = 0 to pins - 1 do
        s_in := max !s_in stage.(Netlist.pin netlist cell k)
      done;
      let s_in = !s_in in
      let a_in = ref 0.0 in
      for k = 0 to pins - 1 do
        let input = Netlist.pin netlist cell k in
        if stage.(input) = s_in then a_in := Float.max !a_in local.(input)
      done;
      let a_in = !a_in in
      (* the whole cell computes in one stage: stage by its slowest port *)
      let max_d = slowest_port tech kind 0.0 in
      let d = Dp_tech.Tech.delay tech kind ~port in
      if a_in +. max_d <= cycle_time +. eps then begin
        stage.(net) <- s_in;
        local.(net) <- a_in +. d
      end
      else begin
        stage.(net) <- s_in + 1;
        local.(net) <- d
      end
  done;
  let latency =
    1 + Array.fold_left max 0 stage
  in
  let stage_delay = Array.make latency 0.0 in
  Array.iteri
    (fun net s -> stage_delay.(s) <- Float.max stage_delay.(s) local.(net))
    stage;
  (* register bits: a net produced in stage s and last read in stage s'
     crosses s' - s boundaries.  Cells read their inputs in the stage of
     their outputs; declared outputs are read in the final stage. *)
  let last_use = Array.copy stage in
  for cell = 0 to Netlist.cell_count netlist - 1 do
    let ports = Dp_tech.Cell_kind.output_count (Netlist.cell_kind netlist cell) in
    let cell_stage = ref 0 in
    for port = 0 to ports - 1 do
      cell_stage := max !cell_stage stage.(Netlist.output_net netlist cell ~port)
    done;
    for k = 0 to Netlist.pin_count netlist cell - 1 do
      let input = Netlist.pin netlist cell k in
      last_use.(input) <- max last_use.(input) !cell_stage
    done
  done;
  List.iter
    (fun (_, nets) ->
      Array.iter (fun net -> last_use.(net) <- latency - 1) nets)
    (Netlist.outputs netlist);
  let register_bits = ref 0 in
  for net = 0 to n - 1 do
    (* constants need no registers *)
    match Netlist.driver netlist net with
    | Netlist.From_const _ -> ()
    | Netlist.From_input _ | Netlist.From_cell _ ->
      register_bits := !register_bits + (last_use.(net) - stage.(net))
  done;
  {
    cycle_time;
    latency;
    stage_of_net = stage;
    local_arrival = local;
    stage_delay;
    register_bits = !register_bits;
  }

let pp ppf p =
  Fmt.pf ppf "T=%.2f: %d stage%s, %d register bits, worst stage %.2f"
    p.cycle_time p.latency
    (if p.latency = 1 then "" else "s")
    p.register_bits
    (Array.fold_left Float.max 0.0 p.stage_delay)
