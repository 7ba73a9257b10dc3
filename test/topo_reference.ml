(* The driver-based [Topo.levels] and [Topo.depth], kept as the reference
   that [Test_netlist] diffs the net-code versions against.  Not used
   outside the tests. *)

open Dp_netlist

let levels netlist =
  let n = Netlist.net_count netlist in
  let level = Array.make n 0 in
  for net = 0 to n - 1 do
    match Netlist.driver netlist net with
    | Netlist.From_input _ | Netlist.From_const _ -> level.(net) <- 0
    | Netlist.From_cell { cell; port = _ } ->
      let c = Netlist.cell netlist cell in
      let max_in =
        Array.fold_left (fun acc input -> max acc level.(input)) 0 c.inputs
      in
      level.(net) <- max_in + 1
  done;
  level

let depth netlist =
  let level = levels netlist in
  List.fold_left
    (fun acc (_, nets) ->
      Array.fold_left (fun acc net -> max acc level.(net)) acc nets)
    0
    (Netlist.outputs netlist)
