let port_label port = match port with 0 -> "s" | 1 -> "c" | _ -> "co"

let emit ?(graph_name = "netlist") netlist =
  let buffer = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "digraph %s {" graph_name;
  line "  rankdir=LR;";
  line "  node [fontname=\"monospace\"];";
  (* primary inputs and constants referenced anywhere *)
  for net = 0 to Netlist.net_count netlist - 1 do
    match Netlist.driver netlist net with
    | Netlist.From_input { var; bit } ->
      line "  net%d [shape=plaintext, label=\"%s[%d]\"];" net var bit
    | Netlist.From_const b ->
      line "  net%d [shape=plaintext, label=\"%c\"];" net (if b then '1' else '0')
    | Netlist.From_cell _ -> ()
  done;
  for id = 0 to Netlist.cell_count netlist - 1 do
    line "  cell%d [shape=box, label=\"%s\"];" id
      (Dp_tech.Cell_kind.name (Netlist.cell_kind netlist id));
    for k = 0 to Netlist.pin_count netlist id - 1 do
      let input = Netlist.pin netlist id k in
      match Netlist.driver netlist input with
      | Netlist.From_cell { cell; port } ->
        line "  cell%d -> cell%d [label=\"%s\"];" cell id (port_label port)
      | Netlist.From_input _ | Netlist.From_const _ ->
        line "  net%d -> cell%d;" input id
    done
  done;
  List.iter
    (fun (name, nets) ->
      Array.iteri
        (fun bit net ->
          line "  out_%s_%d [shape=plaintext, label=\"%s[%d]\"];" name bit name bit;
          match Netlist.driver netlist net with
          | Netlist.From_cell { cell; port } ->
            line "  cell%d -> out_%s_%d [label=\"%s\"];" cell name bit
              (port_label port)
          | Netlist.From_input _ | Netlist.From_const _ ->
            line "  net%d -> out_%s_%d;" net name bit)
        nets)
    (Netlist.outputs netlist);
  line "}";
  Buffer.contents buffer
