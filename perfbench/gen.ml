(* Workload generation.  Everything here is a function of the seed; the
   program under test only ever sees the generated inputs — expression
   text and per-variable specs (width, signedness, arrivals,
   probabilities) — in library form or on the wire. *)

open Dp_designs
module P = Dp_server.Protocol
module Strategy = Dp_flow.Strategy

type req = {
  idx : int;  (** position in the workload's population *)
  label : string;  (** design/strategy/variant, for messages *)
  design : string;
  expr_text : string;
  vars : P.var_spec list;
  width : int;
  strategy : Strategy.t;
  params : P.synth_params;  (** the same request in protocol form *)
}

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A staggered arrival profile with a seeded base and slope, rounded to
   whole picoseconds so the values read back exactly from any log. *)
let arrivals st ~max_base ~max_slope width =
  let ps x = Float.round (x *. 1000.0) /. 1000.0 in
  let base = ps (Random.State.float st max_base) in
  let slope = ps (Random.State.float st max_slope) in
  Array.init width (fun i -> ps (base +. (slope *. float_of_int i)))

(* Re-draw a design's input attributes; its shape (expression, widths,
   signedness, output width) stays the same. *)
let redraw ?(probs = true) ?(max_base = 1.5) ?(max_slope = 0.05) st
    (d : Design.t) =
  List.map
    (fun (name, (v : Dp_expr.Env.var_info)) ->
      let arrival = arrivals st ~max_base ~max_slope v.width in
      let prob = if probs then Design.random_probs st v.width else v.prob in
      P.var_spec ~arrival ~prob ~signed:v.signed name ~width:v.width)
    (Dp_expr.Env.bindings d.env)

let make idx label (d : Design.t) vars strategy =
  let expr_text = Dp_expr.Ast.to_string d.expr in
  match P.synth_params ~vars ~width:(Some d.width) ~strategy expr_text with
  | Ok params ->
    { idx; label; design = d.name; expr_text; vars; width = d.width; strategy; params }
  | Error e -> failwith ("workload generation: " ^ Dp_diag.Diag.to_string e)

let number items =
  Array.mapi (fun idx (label, d, vars, s) -> make idx label d vars s) items

let label (d : Design.t) variant s =
  Printf.sprintf "%s/%s/v%d" d.name (Strategy.name s) variant

(* Every [designs] member under every strategy, [variants] attribute
   draws per design, in a seeded order.  Pairs [keep] refuses are
   returned apart, unshuffled. *)
let population_split ?probs ?max_base ?max_slope ?(keep = fun _ _ -> true)
    ~st ~variants ~strategies designs =
  let kept, dropped =
    List.concat_map
      (fun (d : Design.t) ->
        List.concat_map
          (fun v ->
            let vars = redraw ?probs ?max_base ?max_slope st d in
            List.map (fun s -> (label d v s, d, vars, s)) strategies)
          (List.init variants Fun.id))
      designs
    |> List.partition (fun (_, d, _, s) -> keep d s)
  in
  let items = Array.of_list kept in
  shuffle st items;
  (number items, number (Array.of_list dropped))

let population ?probs ?max_base ?max_slope ~st ~variants ~strategies designs =
  fst (population_split ?probs ?max_base ?max_slope ~st ~variants ~strategies designs)

(* The paper's designs: Table 1 plus the extended kernels, and the five
   Table 2 rows — 21 designs, each under every strategy. *)
let catalog_designs = Catalog.all @ Catalog.table2

let catalog_cold ~seed =
  population
    ~st:(Random.State.make [| seed; 0xca7 |])
    ~variants:1 ~strategies:Strategy.all catalog_designs

(* Tall addend matrices (height ~224-256): seeded arrival profiles, the
   designs' own 0.5 probabilities, the strategies that differ most in
   how they reduce a tall column. *)
let crypto_strategies =
  Strategy.[ Fa_aot; Fa_alp; Sc_t_gpc; Sc_lp_gpc; Dadda_gpc ]

let crypto_tall ~seed =
  population ~probs:false ~max_base:2.0 ~max_slope:0.04
    ~st:(Random.State.make [| seed; 0xc4 |])
    ~variants:2 ~strategies:crypto_strategies
    [ Crypto.mul_mod_diag; Crypto.mac_chain ]

(* The served population: catalog and light crypto designs under every
   strategy, three attribute draws each — 1005 distinct requests — and,
   apart, the pairs left out of it.  The Conventional flow is left out
   on Crypto-SecpFold: its netlist for lo0 + 2^32*lo1 + (2^32 + 977)*hi
   disagrees with the evaluator, and a workload must not fail.  Each run
   checks the left-out requests again, outside the timed region, and
   says whether they still fail. *)
let serve_population ~seed =
  population_split
    ~keep:(fun d s -> not (d == Crypto.secp_fold && s = Strategy.Conventional))
    ~st:(Random.State.make [| seed; 0x5e7e |])
    ~variants:3 ~strategies:Strategy.all
    (catalog_designs @ Crypto.light)

(* Zipf popularity over a population: rank k is drawn with probability
   proportional to 1/k^s.  Ranks go round robin over the designs, in name
   order, so every seed puts the same mix of designs at each level of
   popularity; which of a design's requests (strategy, attribute draw)
   holds each of its ranks follows the seeded population order.  With a
   fully seeded assignment the few hottest requests' sizes set the hit
   latency: the median latency spread by a fifth across seeds, while
   runs of one seed agreed within 4%. *)
type zipf = { cdf : float array; perm : int array }

let zipf_s = 1.0

let zipf (pop : req array) =
  let n = Array.length pop in
  let w = Array.init n (fun k -> 1.0 /. (float_of_int (k + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let by_design = Hashtbl.create 32 in
  Array.iter
    (fun r ->
      let q =
        match Hashtbl.find_opt by_design r.design with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add by_design r.design q;
          q
      in
      Queue.add r.idx q)
    pop;
  let queues =
    List.sort compare (List.of_seq (Hashtbl.to_seq_keys by_design))
    |> List.map (Hashtbl.find by_design)
  in
  let perm = Array.make n 0 and k = ref 0 in
  while !k < n do
    List.iter
      (fun q ->
        if not (Queue.is_empty q) then begin
          perm.(!k) <- Queue.pop q;
          incr k
        end)
      queues
  done;
  { cdf; perm }

let sample z st =
  let u = Random.State.float st 1.0 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if z.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  z.perm.(min (search 0 (Array.length z.cdf - 1)) (Array.length z.cdf - 1))

(* The fixed request every set-up probe answers first: a counter-based
   strategy, so the probe pays the one-time certificate cost. *)
let first_request () =
  make (-1) "setup" Catalog.idct
    (redraw (Random.State.make [| 0x5e1f |]) Catalog.idct)
    Strategy.Sc_t_gpc
