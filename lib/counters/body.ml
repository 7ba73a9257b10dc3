(* One FA/HA evaluation of the recipe on the pin-assignment bitmask [v]. *)
let eval (r : Dp_tech.Recipe.t) v =
  let fa a b c =
    let n = Bool.to_int a + Bool.to_int b + Bool.to_int c in
    (n land 1 = 1, n >= 2)
  in
  let ha a b = (a <> b, a && b) in
  Dp_tech.Recipe.eval r ~pin:(fun i -> (v lsr i) land 1 = 1) ~fa ~ha

let port_value r ~port v =
  let o0, o1, o2 = eval r v in
  match port with
  | 0 -> o0
  | 1 -> o1
  | 2 -> o2
  | _ -> invalid_arg "Body.port_value: bad port"

let weighted_value (r : Dp_tech.Recipe.t) v =
  let o0, o1, o2 = eval r v in
  let weight port b = if b then 1 lsl Spec.port_weight r.kind ~port else 0 in
  weight 0 o0 + weight 1 o1 + weight 2 o2
