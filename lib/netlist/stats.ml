type t = {
  nets : int;
  cells : int;
  fa_count : int;
  ha_count : int;
  counter_count : int;
  gate_count : int;
  area : float;
  depth : int;
  delay : float;
}

let kind_counts netlist =
  let table = Hashtbl.create 16 in
  for id = 0 to Netlist.cell_count netlist - 1 do
    let kind = Netlist.cell_kind netlist id in
    let prev = Option.value (Hashtbl.find_opt table kind) ~default:0 in
    Hashtbl.replace table kind (prev + 1)
  done;
  Hashtbl.fold (fun kind count acc -> (kind, count) :: acc) table []
  |> List.sort (fun (a, _) (b, _) ->
         String.compare (Dp_tech.Cell_kind.name a) (Dp_tech.Cell_kind.name b))

let of_netlist netlist =
  let fa = ref 0 and ha = ref 0 and counters = ref 0 and gates = ref 0 in
  for id = 0 to Netlist.cell_count netlist - 1 do
    match Netlist.cell_kind netlist id with
    | Dp_tech.Cell_kind.Fa -> incr fa
    | Ha -> incr ha
    | C42 | C53 | C63 | C73 -> incr counters
    | And_n _ | Or_n _ | Xor_n _ | Not | Buf -> incr gates
  done;
  {
    nets = Netlist.net_count netlist;
    cells = Netlist.cell_count netlist;
    fa_count = !fa;
    ha_count = !ha;
    counter_count = !counters;
    gate_count = !gates;
    area = Netlist.area netlist;
    depth = Topo.depth netlist;
    delay = Netlist.max_output_arrival netlist;
  }

let pp ppf s =
  Fmt.pf ppf
    "delay %.2f ns, area %.0f units, %d FA, %d HA%a, %d gates, depth %d, %d nets"
    s.delay s.area s.fa_count s.ha_count
    (fun ppf c -> if c > 0 then Fmt.pf ppf ", %d counters" c)
    s.counter_count s.gate_count s.depth s.nets

let net_name netlist net =
  match Netlist.driver netlist net with
  | Netlist.From_input { var; bit } -> Printf.sprintf "%s[%d]" var bit
  | Netlist.From_const b -> if b then "1" else "0"
  | Netlist.From_cell _ -> Printf.sprintf "n%d" net

let pp_cells ppf netlist =
  let pp_net ppf n = Fmt.string ppf (net_name netlist n) in
  let pp_out ppf n = Fmt.pf ppf "%a@%.2f" pp_net n (Netlist.arrival netlist n) in
  for id = 0 to Netlist.cell_count netlist - 1 do
    let kind = Netlist.cell_kind netlist id in
    Fmt.pf ppf "%a(%a) -> %a@." Dp_tech.Cell_kind.pp kind
      Fmt.(list ~sep:(any ", ") pp_net)
      (List.init (Netlist.pin_count netlist id) (Netlist.pin netlist id))
      Fmt.(list ~sep:(any ", ") pp_out)
      (List.init (Dp_tech.Cell_kind.output_count kind) (fun port ->
           Netlist.output_net netlist id ~port))
  done
