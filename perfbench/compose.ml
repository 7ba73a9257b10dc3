(* The two library request paths.  [serve] is what a library caller
   runs: expression text through [Parse.expr_res] and [Serve.run] with no
   store.  [composed] performs the same request as a sequence of public
   layer calls, in [Serve.run]/[Synth.build] order, with a span around
   each, so a traced run can say where the time went.  The traced run
   checks that both paths give byte-identical results. *)

open Dp_expr
module Serve = Dp_cache.Serve
module Key = Dp_cache.Key
module Netlist = Dp_netlist.Netlist
module Matrix = Dp_bitmatrix.Matrix
module Lower = Dp_bitmatrix.Lower
module Strategy = Dp_flow.Strategy
module P = Dp_server.Protocol

let tech = Dp_tech.Tech.lcb_like
let ( let* ) = Result.bind

let env_of_vars vars =
  List.fold_left
    (fun acc (v : P.var_spec) ->
      let* env = acc in
      Env.add_res ~arrival:v.varrival ~prob:v.vprob ~signed:v.vsigned v.vname
        ~width:v.vwidth env)
    (Ok Env.empty) vars

let serve (r : Gen.req) =
  let* expr = Parse.expr_res r.expr_text in
  let* env = env_of_vars r.vars in
  let* o =
    Serve.run (Serve.request ~width:(Some r.width) ~strategy:r.strategy env expr)
  in
  Ok (expr, env, o)

(* The result record a server would send for this request. *)
let record (r : Gen.req) o = Dp_server.Json.to_string (P.result_record r.params o)

(* Per-request layer counters of a composed run; [nan] where the layer
   did not run (no lowering for Conventional, no reduction for the two
   word-level baselines). *)
type layers = {
  bits : float;  (** addend bits after lowering *)
  height : float;  (** tallest column after lowering *)
  lower_mw : float;  (** minor words allocated by lowering, millions *)
  reduce_mw : float;
  cells : float;  (** cells the reducer added *)
  counters : float;  (** parallel-counter cells among them *)
  stages : float;  (** FA/HA/counter levels among them *)
  tree_arrival : float;  (** latest final-adder operand arrival *)
  tree_switching : float;
  cpa_delay : float;  (** output delay minus tree arrival *)
  verilog_bytes : float;
  nets : float;
  minor_mw : float;  (** minor words for the whole request, millions *)
  major : float;  (** major collections during the request *)
}

let allocate (strategy : Strategy.t) netlist matrix =
  match strategy with
  | Fa_aot -> Dp_core.Fa_aot.allocate netlist matrix
  | Fa_aot_combined ->
    Dp_core.Fa_aot.allocate ~tie_break:Dp_core.Sc_t.Prefer_high_q netlist matrix
  | Fa_aot_fa3 ->
    Dp_core.Fa_aot.allocate ~three_policy:Dp_core.Sc_t.Fa_finish netlist matrix
  | Fa_alp -> Dp_core.Fa_alp.allocate netlist matrix
  | Fa_alp_combined ->
    Dp_core.Fa_alp.allocate ~tie_break:Dp_core.Sc_lp.Prefer_early netlist matrix
  | Fa_random seed -> Dp_core.Fa_random.allocate ~seed netlist matrix
  | Wallace -> Dp_core.Wallace.allocate netlist matrix
  | Dadda -> Dp_core.Dadda.allocate netlist matrix
  | Column_isolation -> Dp_core.Column_isolation.allocate netlist matrix
  | Sc_t_gpc -> Dp_core.Gpc.allocate_t netlist matrix
  | Sc_lp_gpc -> Dp_core.Gpc.allocate_lp netlist matrix
  | Dadda_gpc -> Dp_core.Gpc.allocate_dadda netlist matrix
  | Conventional | Csa_opt -> invalid_arg "not a matrix strategy"

let rows_max_arrival netlist (a, b) =
  let row acc =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some n -> Float.max acc (Netlist.arrival netlist n))
      acc
  in
  row (row 0.0 a) b

(* Cells the reducer added (ids [first, last)): count, counters, and
   the longest chain of FA/HA/counter cells among them. *)
let reduction_shape netlist ~first ~last =
  let level = Array.make (max 1 (Netlist.net_count netlist)) 0 in
  let counters = ref 0 and stages = ref 0 in
  for id = first to last - 1 do
    let c = Netlist.cell netlist id in
    let is_counter = Dp_tech.Cell_kind.is_counter c.kind in
    if is_counter then incr counters;
    let reduces =
      is_counter || c.kind = Dp_tech.Cell_kind.Fa || c.kind = Dp_tech.Cell_kind.Ha
    in
    let base = Array.fold_left (fun acc n -> max acc level.(n)) 0 c.inputs in
    let l = if reduces then base + 1 else base in
    stages := max !stages l;
    Array.iter (fun n -> level.(n) <- l) (Netlist.cell_output_nets netlist id)
  done;
  (float_of_int (last - first), float_of_int !counters, float_of_int !stages)

let mwords since = (Gc.minor_words () -. since) /. 1e6

let composed ctx (r : Gen.req) =
  let sp name f = Trace.span ctx name f in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).major_collections in
  let* expr = sp "expr.parse" (fun () -> Parse.expr_res r.expr_text) in
  let* env =
    sp "expr.env" (fun () ->
        let* env = env_of_vars r.vars in
        let* () = Env.check_covers_res expr env in
        Ok env)
  in
  let key, digest =
    sp "cache.key" (fun () ->
        let key = Key.make ~width:r.width r.strategy env expr in
        (key, Key.digest key))
  in
  let width = key.width in
  let adder = Dp_adders.Adder.Cla in
  let netlist = Netlist.create ~tech in
  let nan3 = (nan, nan, nan) in
  let lower () =
    let w0 = Gc.minor_words () in
    let m =
      sp "bitmatrix.lower" (fun () ->
          Lower.lower ~config:Lower.default_config netlist env key.expr ~width)
    in
    (m, (float_of_int (Matrix.total_addends m), float_of_int (Matrix.height m), mwords w0))
  in
  let cpa rows =
    sp "adders.cpa" (fun () -> Dp_adders.Adder.build_rows adder netlist ~width rows)
  in
  let out, tree_arrival, lowered, reduced, shape =
    match r.strategy with
    | Conventional ->
      let config = { Dp_baselines.Conventional.default_config with adder } in
      let out =
        sp "baselines.build" (fun () ->
            Dp_baselines.Conventional.synthesize ~config netlist env key.expr
              ~width)
      in
      (out, None, nan3, nan, nan3)
    | Csa_opt ->
      let m, lowered = lower () in
      let rows =
        sp "baselines.build" (fun () ->
            Dp_baselines.Csa_opt.allocate netlist ~width
              (Dp_baselines.Rows.of_matrix ~width m))
      in
      let tree = rows_max_arrival netlist rows in
      (cpa rows, Some tree, lowered, nan, nan3)
    | Fa_aot | Fa_aot_combined | Fa_aot_fa3 | Fa_alp | Fa_alp_combined
    | Fa_random _ | Wallace | Dadda | Column_isolation | Sc_t_gpc | Sc_lp_gpc
    | Dadda_gpc ->
      let m, lowered = lower () in
      let first = Netlist.cell_count netlist in
      let w0 = Gc.minor_words () in
      let rows =
        sp "core.reduce" (fun () ->
            allocate r.strategy netlist m;
            Matrix.operand_rows m)
      in
      let reduced = mwords w0 in
      let shape =
        reduction_shape netlist ~first ~last:(Netlist.cell_count netlist)
      in
      let tree = rows_max_arrival netlist rows in
      (cpa rows, Some tree, lowered, reduced, shape)
  in
  Netlist.set_output netlist "out" out;
  let stats = sp "netlist.stats" (fun () -> Dp_netlist.Stats.of_netlist netlist) in
  let tree_switching, total_switching =
    sp "power.switching" (fun () ->
        ( Dp_power.Switching.tree_switching netlist,
          Dp_power.Switching.total_switching netlist ))
  in
  Netlist.detach_gov netlist;
  let verilog = sp "netlist.verilog" (fun () -> Dp_netlist.Verilog.emit netlist) in
  let result =
    {
      Dp_flow.Synth.strategy = r.strategy;
      netlist;
      output = "out";
      width;
      stats;
      tree_switching;
      total_switching;
      reduced_max_arrival = tree_arrival;
    }
  in
  let bits, height, lower_mw = lowered in
  let cells, counters, stages = shape in
  let tree = Option.value ~default:nan tree_arrival in
  let layers =
    {
      bits;
      height;
      lower_mw;
      reduce_mw = reduced;
      cells;
      counters;
      stages;
      tree_arrival = tree;
      tree_switching;
      cpa_delay = stats.delay -. tree;
      verilog_bytes = float_of_int (String.length verilog);
      nets = float_of_int stats.nets;
      minor_mw = mwords minor0;
      major = float_of_int ((Gc.quick_stat ()).major_collections - major0);
    }
  in
  Ok ({ Serve.result; verilog; digest; width; cached = false }, layers)
