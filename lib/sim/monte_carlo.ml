open Dp_netlist

type result = {
  vectors : int;
  toggle_rate : float array;  (* per net: toggles / (vectors - 1) *)
}

let random_vector rng netlist =
  (* Draw each input bit independently with its annotated 1-probability. *)
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

(* Both estimators stream their vectors through [Bitsim] 64 lanes at a
   time.  The per-vector random draws happen in exactly the order the
   scalar loop made them, so a given seed still produces bit-identical
   rates; only the netlist sweeps are 64-wide. *)

let lane_assigns rng netlist lanes =
  let assigns = Array.make lanes (fun (_ : string) -> 0) in
  for k = 0 to lanes - 1 do
    assigns.(k) <- random_vector rng netlist
  done;
  assigns

let toggle_rates ?(seed = 0x70661e) ~vectors netlist =
  if vectors < 2 then invalid_arg "Monte_carlo.toggle_rates: need >= 2 vectors";
  let rng = Random.State.make [| seed |] in
  let n = Netlist.net_count netlist in
  let toggles = Array.make n 0 in
  let prev_bit = Array.make n false in
  let done_ = ref 0 in
  while !done_ < vectors do
    let lanes = min 64 (vectors - !done_) in
    let assigns = lane_assigns rng netlist lanes in
    let values =
      Bitsim.run_lanes netlist ~lanes ~assign:(fun k name -> assigns.(k) name)
    in
    (* Toggles between lanes k and k+1 are the set bits of w lxor (w >> 1)
       below lane [lanes-1]; the block boundary contributes one more when
       the previous block's last lane differs from lane 0. *)
    let internal = Bitsim.lane_mask (lanes - 1) in
    let defined = Bitsim.lane_mask lanes in
    for net = 0 to n - 1 do
      let w = Int64.logand values.(net) defined in
      let t =
        Bitsim.popcount
          (Int64.logand (Int64.logxor w (Int64.shift_right_logical w 1)) internal)
      in
      let first = Int64.logand w 1L <> 0L in
      let boundary = if !done_ > 0 && prev_bit.(net) <> first then 1 else 0 in
      toggles.(net) <- toggles.(net) + t + boundary;
      prev_bit.(net) <-
        Int64.logand (Int64.shift_right_logical w (lanes - 1)) 1L <> 0L
    done;
    done_ := !done_ + lanes
  done;
  {
    vectors;
    toggle_rate =
      Array.map (fun t -> float_of_int t /. float_of_int (vectors - 1)) toggles;
  }

let measured_prob ?(seed = 0x70661e) ~vectors netlist =
  if vectors < 1 then invalid_arg "Monte_carlo.measured_prob: need >= 1 vector";
  let rng = Random.State.make [| seed |] in
  let n = Netlist.net_count netlist in
  let ones = Array.make n 0 in
  let done_ = ref 0 in
  while !done_ < vectors do
    let lanes = min 64 (vectors - !done_) in
    let assigns = lane_assigns rng netlist lanes in
    let values =
      Bitsim.run_lanes netlist ~lanes ~assign:(fun k name -> assigns.(k) name)
    in
    let defined = Bitsim.lane_mask lanes in
    for net = 0 to n - 1 do
      ones.(net) <-
        ones.(net) + Bitsim.popcount (Int64.logand values.(net) defined)
    done;
    done_ := !done_ + lanes
  done;
  Array.map (fun o -> float_of_int o /. float_of_int vectors) ones

let switching_energy netlist rates =
  (* Under temporal independence the expected toggle rate of a net with
     1-probability p is 2 p (1-p); the paper's E(x) = p(1-p) is half that,
     so the measured equivalent of E_switching uses rate / 2. *)
  let tech = Netlist.tech netlist in
  let total = ref 0.0 in
  for cell = 0 to Netlist.cell_count netlist - 1 do
    let kind = Netlist.cell_kind netlist cell in
    for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
      let w = Dp_tech.Tech.energy tech kind ~port in
      let net = Netlist.output_net netlist cell ~port in
      total := !total +. (w *. rates.(net) /. 2.0)
    done
  done;
  !total
