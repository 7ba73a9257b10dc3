open Dp_tech

let kinds = [ Cell_kind.C42; Cell_kind.C53; Cell_kind.C63; Cell_kind.C73 ]

let arity = Cell_kind.arity

let port_weight (kind : Cell_kind.t) ~port =
  match kind, port with
  | (C53 | C63 | C73), (0 | 1 | 2) -> port
  | C42, 0 -> 0
  | C42, (1 | 2) -> 1
  | _ -> invalid_arg "Spec.port_weight"

let popcount v =
  let n = ref 0 and v = ref v in
  while !v <> 0 do
    n := !n + (!v land 1);
    v := !v lsr 1
  done;
  !n

let port_value (kind : Cell_kind.t) ~port v =
  match kind with
  | C53 | C63 | C73 -> (popcount v lsr port) land 1 = 1
  | C42 -> (
    let bit i = (v lsr i) land 1 = 1 in
    match port with
    | 0 -> bit 0 <> bit 1 <> bit 2 <> bit 3 <> bit 4
    | 1 ->
      let t = bit 0 <> bit 1 <> bit 2 in
      (t && bit 3) || (t && bit 4) || (bit 3 && bit 4)
    | 2 -> (bit 0 && bit 1) || (bit 0 && bit 2) || (bit 1 && bit 2)
    | _ -> invalid_arg "Spec.port_value: bad port")
  | _ -> invalid_arg "Spec.port_value: not a counter"

let weighted_value kind v =
  let acc = ref 0 in
  for port = 0 to 2 do
    if port_value kind ~port v then
      acc := !acc + (1 lsl port_weight kind ~port)
  done;
  !acc
