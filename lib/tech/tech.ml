type t = {
  name : string;
  fa_sum_delay : float;
  fa_carry_delay : float;
  ha_sum_delay : float;
  ha_carry_delay : float;
  and2_delay : float;
  or2_delay : float;
  xor2_delay : float;
  not_delay : float;
  buf_delay : float;
  fa_area : float;
  ha_area : float;
  and2_area : float;
  or2_area : float;
  xor2_area : float;
  not_area : float;
  buf_area : float;
  fa_sum_energy : float;
  fa_carry_energy : float;
  ha_sum_energy : float;
  ha_carry_energy : float;
  gate_energy : float;
  counter_fusion : float;
}

(* Delay/area magnitudes chosen at 0.35um standard-cell scale; only relative
   values matter for reproducing the paper's comparisons. *)
let lcb_like = {
  name = "lcb_like_0.35um";
  fa_sum_delay = 0.45;
  fa_carry_delay = 0.32;
  ha_sum_delay = 0.28;
  ha_carry_delay = 0.18;
  and2_delay = 0.15;
  or2_delay = 0.15;
  xor2_delay = 0.25;
  not_delay = 0.08;
  buf_delay = 0.10;
  fa_area = 8.0;
  ha_area = 4.0;
  and2_area = 2.0;
  or2_area = 2.0;
  xor2_area = 3.0;
  not_area = 1.0;
  buf_area = 1.0;
  fa_sum_energy = 1.0;
  fa_carry_energy = 1.1;
  ha_sum_energy = 0.55;
  ha_carry_energy = 0.45;
  gate_energy = 0.25;
  (* Monolithic counter/compressor cells (mux- and transmission-gate
     based) run their internal paths roughly a quarter faster than two
     cascaded discrete FAs — the classic reason libraries ship dedicated
     4:2 cells. *)
  counter_fusion = 0.75;
}

(* The teaching technology of the paper's Fig. 2: Ds = 2, Dc = 1, everything
   else free.  Lets the examples reproduce the figure's arrival arithmetic. *)
let unit_delay = {
  name = "unit_delay";
  fa_sum_delay = 2.0;
  fa_carry_delay = 1.0;
  ha_sum_delay = 2.0;
  ha_carry_delay = 1.0;
  and2_delay = 0.0;
  or2_delay = 0.0;
  xor2_delay = 0.0;
  not_delay = 0.0;
  buf_delay = 0.0;
  fa_area = 1.0;
  ha_area = 0.5;
  and2_area = 0.0;
  or2_area = 0.0;
  xor2_area = 0.0;
  not_area = 0.0;
  buf_area = 0.0;
  fa_sum_energy = 1.0;
  fa_carry_energy = 1.0;
  ha_sum_energy = 1.0;
  ha_carry_energy = 1.0;
  gate_energy = 0.0;
  (* The teaching technology prices counters exactly as their discrete
     bodies, keeping the Fig. 2 arrival arithmetic literal. *)
  counter_fusion = 1.0;
}

let tree_levels n =
  (* depth of a balanced binary tree with [n] leaves *)
  let rec go acc cap = if cap >= n then acc else go (acc + 1) (cap * 2) in
  go 0 1

(* Per-pin, per-port delays of the parallel counters, as path sums of
   FA/HA block delays through the counter bodies of [Recipe] (the test
   suite and [Dp_counters.Certify] hold these closed forms to the
   recipe-derived model for every technology).

   [None] means the pin has no combinational path to the port — the one
   such case is the 4:2 compressor's carry-out, which is independent of
   the late pins 3 (x4) and 4 (cin); that independence is what makes
   4:2 rows chain without a ripple.

   Every path sum is scaled by [counter_fusion]: the monolithic cell runs
   the body's paths faster than the discrete composition by that fixed
   technology-wide ratio. *)
let counter_pin_delay t (kind : Cell_kind.t) ~pin ~port =
  let ds = t.fa_sum_delay and dc = t.fa_carry_delay in
  let hs = t.ha_sum_delay and hc = t.ha_carry_delay in
  let fused path = Some (t.counter_fusion *. path) in
  match kind, port with
  | Cell_kind.C53, 0 -> fused (if pin < 3 then ds +. ds else ds)
  | Cell_kind.C53, 1 -> fused ((if pin < 3 then ds +. dc else dc) +. hs)
  | Cell_kind.C53, 2 -> fused ((if pin < 3 then ds +. dc else dc) +. hc)
  | Cell_kind.C63, 0 -> fused (ds +. hs)
  | Cell_kind.C63, 1 -> fused (Float.max dc (ds +. hc) +. ds)
  | Cell_kind.C63, 2 -> fused (Float.max dc (ds +. hc) +. dc)
  | Cell_kind.C73, 0 -> fused (if pin < 6 then ds +. ds else ds)
  | Cell_kind.C73, 1 -> fused (Float.max dc (if pin < 6 then ds +. dc else dc) +. ds)
  | Cell_kind.C73, 2 -> fused (Float.max dc (if pin < 6 then ds +. dc else dc) +. dc)
  | Cell_kind.C42, 0 -> fused (if pin < 3 then ds +. ds else ds)
  | Cell_kind.C42, 1 -> fused (if pin < 3 then ds +. dc else dc)
  | Cell_kind.C42, 2 -> if pin < 3 then fused dc else None
  | (Cell_kind.C42 | Cell_kind.C53 | Cell_kind.C63 | Cell_kind.C73), _ ->
    invalid_arg "Tech.pin_delay: bad output port"
  | ( Cell_kind.Fa | Cell_kind.Ha | Cell_kind.And_n _ | Cell_kind.Or_n _
    | Cell_kind.Xor_n _ | Cell_kind.Not | Cell_kind.Buf ), _ ->
    invalid_arg "Tech.counter_pin_delay: not a counter"

let counter_worst_delay t kind ~port =
  let worst = ref neg_infinity in
  for pin = 0 to Cell_kind.arity kind - 1 do
    match counter_pin_delay t kind ~pin ~port with
    | Some d -> worst := Float.max !worst d
    | None -> ()
  done;
  !worst

let delay t kind ~port =
  match (kind : Cell_kind.t), port with
  | Fa, 0 -> t.fa_sum_delay
  | Fa, 1 -> t.fa_carry_delay
  | Ha, 0 -> t.ha_sum_delay
  | Ha, 1 -> t.ha_carry_delay
  | (C42 | C53 | C63 | C73), (0 | 1 | 2) -> counter_worst_delay t kind ~port
  | And_n n, 0 -> t.and2_delay *. float_of_int (tree_levels n)
  | Or_n n, 0 -> t.or2_delay *. float_of_int (tree_levels n)
  | Xor_n n, 0 -> t.xor2_delay *. float_of_int (tree_levels n)
  | Not, 0 -> t.not_delay
  | Buf, 0 -> t.buf_delay
  | (Fa | Ha | C42 | C53 | C63 | C73 | And_n _ | Or_n _ | Xor_n _ | Not | Buf), _
    ->
    invalid_arg "Tech.delay: bad output port"

let pin_delay t kind ~pin ~port =
  match (kind : Cell_kind.t) with
  | C42 | C53 | C63 | C73 -> counter_pin_delay t kind ~pin ~port
  | Fa | Ha | And_n _ | Or_n _ | Xor_n _ | Not | Buf ->
    (* every pin of a conventional cell reaches every port with the same
       pin-to-pin delay *)
    ignore pin;
    Some (delay t kind ~port)

(* Counter areas are the block sums of their canonical bodies. *)
let area t (kind : Cell_kind.t) =
  match kind with
  | Fa -> t.fa_area
  | Ha -> t.ha_area
  | C42 -> 2.0 *. t.fa_area
  | C53 -> (2.0 *. t.fa_area) +. t.ha_area
  | C63 -> (3.0 *. t.fa_area) +. t.ha_area
  | C73 -> 4.0 *. t.fa_area
  | And_n n -> t.and2_area *. float_of_int (n - 1)
  | Or_n n -> t.or2_area *. float_of_int (n - 1)
  | Xor_n n -> t.xor2_area *. float_of_int (n - 1)
  | Not -> t.not_area
  | Buf -> t.buf_area

(* Counter output energies distribute the body's block-output energies over
   the monolithic ports (each internal net is attributed to the port fed by
   its block chain), so the sum over a counter's ports equals the sum over
   its expanded body's outputs — a conservation the test suite checks. *)
let energy t kind ~port =
  match (kind : Cell_kind.t), port with
  | Fa, 0 -> t.fa_sum_energy
  | Fa, 1 -> t.fa_carry_energy
  | Ha, 0 -> t.ha_sum_energy
  | Ha, 1 -> t.ha_carry_energy
  | C42, 0 -> 2.0 *. t.fa_sum_energy
  | C42, (1 | 2) -> t.fa_carry_energy
  | C53, 0 -> 2.0 *. t.fa_sum_energy
  | C53, 1 -> t.ha_sum_energy +. t.fa_carry_energy
  | C53, 2 -> t.ha_carry_energy +. t.fa_carry_energy
  | C63, 0 -> (2.0 *. t.fa_sum_energy) +. t.ha_sum_energy
  | C63, 1 -> t.fa_sum_energy +. t.fa_carry_energy
  | C63, 2 -> (2.0 *. t.fa_carry_energy) +. t.ha_carry_energy
  | C73, 0 -> 3.0 *. t.fa_sum_energy
  | C73, 1 -> t.fa_sum_energy +. t.fa_carry_energy
  | C73, 2 -> 3.0 *. t.fa_carry_energy
  | (And_n _ | Or_n _ | Xor_n _ | Not | Buf), 0 -> t.gate_energy
  | (Fa | Ha | C42 | C53 | C63 | C73 | And_n _ | Or_n _ | Xor_n _ | Not | Buf), _
    ->
    invalid_arg "Tech.energy: bad output port"

let pp ppf t = Fmt.pf ppf "tech:%s" t.name
