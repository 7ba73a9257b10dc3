open Dp_tech

(* Pin-resolved delay by a single-pin forward pass: seed the probed pin
   at 0.0 and every other pin at -inf, propagate block worst-arrival plus
   the technology's FA/HA port delays, and read the port.  -inf at the
   output means no combinational path (the 4:2's carry-out vs its cin).
   Sums stay left-associated along each path, so for non-negative delays
   the results are bit-identical to the technology's closed forms —
   [Certify] holds the two within a tight epsilon.  The composed path is
   scaled by the technology's [counter_fusion], the ratio at which the
   monolithic cell beats its discrete reference body. *)
let pin_delay tech (r : Recipe.t) ~pin ~port =
  let through kind worst =
    ( worst +. Tech.delay tech kind ~port:0,
      worst +. Tech.delay tech kind ~port:1 )
  in
  let o0, o1, o2 =
    Recipe.eval r
      ~pin:(fun i -> if i = pin then 0.0 else neg_infinity)
      ~fa:(fun a b c -> through Cell_kind.Fa (Float.max (Float.max a b) c))
      ~ha:(fun a b -> through Cell_kind.Ha (Float.max a b))
  in
  let a =
    match port with
    | 0 -> o0
    | 1 -> o1
    | 2 -> o2
    | _ -> invalid_arg "Model.pin_delay: bad port"
  in
  if Float.is_finite a then Some (tech.Tech.counter_fusion *. a) else None

let area tech (r : Recipe.t) =
  (float_of_int (Recipe.fa_count r) *. Tech.area tech Cell_kind.Fa)
  +. (float_of_int (Recipe.ha_count r) *. Tech.area tech Cell_kind.Ha)

(* Total switching energy of the body's block outputs.  The monolithic
   cell attributes the same total across its three ports, so the sums
   must agree — the conservation law [Certify] checks. *)
let total_energy tech (r : Recipe.t) =
  Array.fold_left
    (fun acc (b : Recipe.block) ->
      let kind = if b.fa then Cell_kind.Fa else Cell_kind.Ha in
      acc +. Tech.energy tech kind ~port:0 +. Tech.energy tech kind ~port:1)
    0.0 r.blocks
