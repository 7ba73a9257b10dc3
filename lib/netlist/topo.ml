let check netlist =
  (* Builder invariant: cells only consume already-existing nets, so every
     input net id is smaller than every output net id of the same cell
     (port 0's, the smallest). *)
  let ok = ref true in
  for id = 0 to Netlist.cell_count netlist - 1 do
    let min_out = Netlist.output_net netlist id ~port:0 in
    for k = 0 to Netlist.pin_count netlist id - 1 do
      if Netlist.pin netlist id k >= min_out then ok := false
    done
  done;
  !ok

let levels netlist =
  let n = Netlist.net_count netlist in
  let level = Array.make n 0 in
  (* Nets are created in topological order, so one forward pass suffices;
     inputs and constants stay at level 0. *)
  for net = 0 to n - 1 do
    let cell = Netlist.driving_cell netlist net in
    if cell >= 0 then begin
      let max_in = ref 0 in
      for k = 0 to Netlist.pin_count netlist cell - 1 do
        max_in := Int.max !max_in level.(Netlist.pin netlist cell k)
      done;
      level.(net) <- !max_in + 1
    end
  done;
  level

let depth netlist =
  let level = levels netlist in
  List.fold_left
    (fun acc (_, nets) ->
      Array.fold_left (fun acc net -> Int.max acc level.(net)) acc nets)
    0
    (Netlist.outputs netlist)

let critical_path netlist ~from =
  (* Walk back from [from] through, at each cell, the input pin whose
     arrival-plus-pin-delay dominates the port's arrival; pins with no
     combinational path to the port (a 4:2 compressor's carry-out does
     not see its cin) are never chosen.  Report nets root-first. *)
  let tech = Netlist.tech netlist in
  let rec walk net acc =
    let acc = net :: acc in
    match Netlist.driver netlist net with
    | Netlist.From_input _ | Netlist.From_const _ -> acc
    | Netlist.From_cell { cell; port } ->
      let kind = Netlist.cell_kind netlist cell in
      let worst = ref None and worst_at = ref neg_infinity in
      for pin = 0 to Netlist.pin_count netlist cell - 1 do
        let input = Netlist.pin netlist cell pin in
        match Dp_tech.Tech.pin_delay tech kind ~pin ~port with
        | Some d ->
          let at = Netlist.arrival netlist input +. d in
          if !worst = None || at > !worst_at then begin
            worst := Some input;
            worst_at := at
          end
        | None -> ()
      done;
      (match !worst with None -> acc | Some input -> walk input acc)
  in
  walk from []
