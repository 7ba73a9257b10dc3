open Dp_netlist

let activity p = p *. (1.0 -. p)

let net_activity netlist net = activity (Netlist.prob netlist net)

(* Adds the energy-weighted activity of cell [id]'s output ports to
   [total], port by port. *)
let add_cell_switching netlist tech total id kind =
  for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
    let w = Dp_tech.Tech.energy tech kind ~port in
    let net = Netlist.output_net netlist id ~port in
    total := !total +. (w *. net_activity netlist net)
  done

let tree_switching netlist =
  (* The paper's E_switching(T) (Sec. 4.2): sum over adder cells — FA/HA
     and the parallel counters — of energy * activity per output port. *)
  let tech = Netlist.tech netlist in
  let total = ref 0.0 in
  for id = 0 to Netlist.cell_count netlist - 1 do
    match Netlist.cell_kind netlist id with
    | ( Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha | Dp_tech.Cell_kind.C42
      | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73 )
      as kind ->
      add_cell_switching netlist tech total id kind
    | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
    | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not
    | Dp_tech.Cell_kind.Buf -> ()
  done;
  !total

let total_switching netlist =
  let tech = Netlist.tech netlist in
  let total = ref 0.0 in
  for id = 0 to Netlist.cell_count netlist - 1 do
    add_cell_switching netlist tech total id (Netlist.cell_kind netlist id)
  done;
  !total

(* A nominal scale factor turning the dimensionless energy-weighted activity
   into milliwatt-like magnitudes comparable to the paper's Table 2 (which
   used 3.3 V at 0.35 um).  Only ratios are meaningful. *)
let mw_scale = 6.0

let milliwatts e = e *. mw_scale
