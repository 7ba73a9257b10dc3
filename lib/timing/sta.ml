open Dp_netlist

let arrivals netlist =
  let tech = Netlist.tech netlist in
  let n = Netlist.net_count netlist in
  let arrival = Array.make n neg_infinity in
  let gov = Netlist.gov netlist in
  (* Net ids are topologically ordered, so one forward pass suffices. *)
  for net = 0 to n - 1 do
    (match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Sta g
    | None -> ());
    match Netlist.driver netlist net with
    | Netlist.From_input _ | Netlist.From_const _ ->
      arrival.(net) <- Netlist.arrival netlist net
    | Netlist.From_cell { cell; port } ->
      let kind = Netlist.cell_kind netlist cell in
      (* Pin-resolved: worst over the pins with a path to this port.  For
         conventional cells every pin reaches every port with the port's
         one delay, so this equals max-input-arrival + delay; for the
         counters it prices each pin's path through the certified body
         (and skips e.g. the 4:2 carry-out's dead cin pin). *)
      let worst = ref neg_infinity in
      for pin = 0 to Netlist.pin_count netlist cell - 1 do
        let input = Netlist.pin netlist cell pin in
        match Dp_tech.Tech.pin_delay tech kind ~pin ~port with
        | Some d -> worst := Float.max !worst (arrival.(input) +. d)
        | None -> ()
      done;
      arrival.(net) <- !worst
  done;
  arrival

let agrees_with_annotation ?(eps = 1e-9) netlist =
  let recomputed = arrivals netlist in
  let ok = ref true in
  Array.iteri
    (fun net a ->
      if Float.abs (a -. Netlist.arrival netlist net) > eps then ok := false)
    recomputed;
  !ok

let design_delay netlist = Netlist.max_output_arrival netlist

type endpoint = { output : string; bit : int; arrival : float }

let endpoints netlist =
  List.concat_map
    (fun (output, nets) ->
      Array.to_list
        (Array.mapi
           (fun bit net -> { output; bit; arrival = Netlist.arrival netlist net })
           nets))
    (Netlist.outputs netlist)

let critical_endpoint netlist =
  match endpoints netlist with
  | [] -> invalid_arg "Sta.critical_endpoint: netlist has no outputs"
  | first :: rest ->
    List.fold_left
      (fun best e -> if e.arrival > best.arrival then e else best)
      first rest

let critical_path netlist =
  let e = critical_endpoint netlist in
  let nets = Netlist.find_output netlist e.output in
  Topo.critical_path netlist ~from:nets.(e.bit)

let pp_endpoint ppf e =
  Fmt.pf ppf "%s[%d] @@ %.3f ns" e.output e.bit e.arrival

let pp_path netlist ppf path =
  let pp_step ppf net =
    Fmt.pf ppf "%s@%.3f" (Stats.net_name netlist net) (Netlist.arrival netlist net)
  in
  Fmt.(list ~sep:(any " -> ") pp_step) ppf path
