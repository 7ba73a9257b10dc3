open Dp_netlist

let fa_sum_q qx qy qz = 4.0 *. qx *. qy *. qz

let fa_carry_q qx qy qz =
  (0.5 *. (qx +. qy +. qz)) -. (2.0 *. qx *. qy *. qz)

let ha_sum_q qx qy = fa_sum_q qx qy (-0.5)
let ha_carry_q qx qy = fa_carry_q qx qy (-0.5)

let popcount_int v =
  let n = ref 0 and v = ref v in
  while !v <> 0 do
    n := !n + (!v land 1);
    v := !v lsr 1
  done;
  !n

(* The 1-probability of output [port] of [cell], from its pins'
   probabilities in [probs]. *)
let output_prob netlist cell probs ~port =
  let p i = probs.(Netlist.pin netlist cell i) in
  let qv i = p i -. 0.5 in
  (* Minterm enumeration over the 2^m pin assignments (m <= 7).
     Deliberately a different algorithm from the builder's count-
     distribution convolution / closed forms, so annotation and
     recomputation cross-check each other. *)
  let enumerate m value_of =
    let acc = ref 0.0 in
    for v = 0 to (1 lsl m) - 1 do
      if value_of v then begin
        let pr = ref 1.0 in
        for i = 0 to m - 1 do
          pr := !pr *. (if (v lsr i) land 1 = 1 then p i else 1.0 -. p i)
        done;
        acc := !acc +. !pr
      end
    done;
    !acc
  in
  match Netlist.cell_kind netlist cell, port with
  | Dp_tech.Cell_kind.Fa, 0 -> 0.5 +. fa_sum_q (qv 0) (qv 1) (qv 2)
  | Dp_tech.Cell_kind.Fa, 1 -> 0.5 +. fa_carry_q (qv 0) (qv 1) (qv 2)
  | Dp_tech.Cell_kind.Ha, 0 -> 0.5 +. ha_sum_q (qv 0) (qv 1)
  | Dp_tech.Cell_kind.Ha, 1 -> 0.5 +. ha_carry_q (qv 0) (qv 1)
  | Dp_tech.Cell_kind.And_n n, 0 ->
    let acc = ref 1.0 in
    for i = 0 to n - 1 do
      acc := !acc *. p i
    done;
    !acc
  | Dp_tech.Cell_kind.Or_n n, 0 ->
    let acc = ref 1.0 in
    for i = 0 to n - 1 do
      acc := !acc *. (1.0 -. p i)
    done;
    1.0 -. !acc
  | Dp_tech.Cell_kind.Xor_n n, 0 ->
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let pi = p i in
      acc := !acc +. pi -. (2.0 *. !acc *. pi)
    done;
    !acc
  | ( Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73 ),
    (0 | 1 | 2) ->
    enumerate (Netlist.pin_count netlist cell) (fun v ->
        (popcount_int v lsr port) land 1 = 1)
  | Dp_tech.Cell_kind.C42, (0 | 1 | 2) ->
    enumerate 5 (fun v ->
        let bit i = (v lsr i) land 1 = 1 in
        let t = bit 0 <> bit 1 <> bit 2 in
        match port with
        | 0 -> t <> bit 3 <> bit 4
        | 1 -> (t && bit 3) || (t && bit 4) || (bit 3 && bit 4)
        | _ -> (bit 0 && bit 1) || (bit 0 && bit 2) || (bit 1 && bit 2))
  | Dp_tech.Cell_kind.Not, 0 -> 1.0 -. p 0
  | Dp_tech.Cell_kind.Buf, 0 -> p 0
  | ( Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha | Dp_tech.Cell_kind.C42
    | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73
    | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
    | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not
    | Dp_tech.Cell_kind.Buf ), _ ->
    invalid_arg "Prob.probabilities: bad port"

let probabilities netlist =
  let n = Netlist.net_count netlist in
  let probs = Array.make n 0.0 in
  let gov = Netlist.gov netlist in
  for net = 0 to n - 1 do
    (match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Prob g
    | None -> ());
    match Netlist.driver netlist net with
    | Netlist.From_input _ -> probs.(net) <- Netlist.prob netlist net
    | Netlist.From_const b -> probs.(net) <- (if b then 1.0 else 0.0)
    | Netlist.From_cell { cell; port } ->
      (* Same clamp as [Netlist.new_net]: the exact formulas can round a
         few ulps outside [0,1] at extreme input probabilities. *)
      probs.(net) <-
        Float.max 0.0
          (Float.min 1.0 (output_prob netlist cell probs ~port))
  done;
  probs

let agrees_with_annotation ?(eps = 1e-9) netlist =
  let recomputed = probabilities netlist in
  let ok = ref true in
  Array.iteri
    (fun net p ->
      if Float.abs (p -. Netlist.prob netlist net) > eps then ok := false)
    recomputed;
  !ok
