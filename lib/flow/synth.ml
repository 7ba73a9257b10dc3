open Dp_netlist
open Dp_expr

type result = {
  strategy : Strategy.t;
  netlist : Netlist.t;
  output : string;
  width : int;
  stats : Stats.t;
  tree_switching : float;
  total_switching : float;
  reduced_max_arrival : float option;
}

let output_name = "out"

(* Reduce a lowered matrix under [strategy] to the final adder's two
   operand rows. *)
let reduce_matrix (strategy : Strategy.t) netlist ~width matrix =
  let allocate (f : Netlist.t -> Dp_bitmatrix.Matrix.t -> unit) =
    f netlist matrix;
    Dp_bitmatrix.Matrix.operand_rows matrix
  in
  match strategy with
  | Fa_aot -> allocate Dp_core.Fa_aot.allocate
  | Fa_aot_combined ->
    allocate (Dp_core.Fa_aot.allocate ~tie_break:Dp_core.Sc_t.Prefer_high_q)
  | Fa_aot_fa3 ->
    allocate (Dp_core.Fa_aot.allocate ~three_policy:Dp_core.Sc_t.Fa_finish)
  | Fa_alp -> allocate Dp_core.Fa_alp.allocate
  | Fa_alp_combined ->
    allocate (Dp_core.Fa_alp.allocate ~tie_break:Dp_core.Sc_lp.Prefer_early)
  | Fa_random seed -> allocate (Dp_core.Fa_random.allocate ~seed)
  | Wallace -> allocate Dp_core.Wallace.allocate
  | Dadda -> allocate Dp_core.Dadda.allocate
  | Column_isolation -> allocate Dp_core.Column_isolation.allocate
  | Sc_t_gpc -> allocate Dp_core.Gpc.allocate_t
  | Sc_lp_gpc -> allocate Dp_core.Gpc.allocate_lp
  | Dadda_gpc -> allocate Dp_core.Gpc.allocate_dadda
  | Csa_opt ->
    Dp_baselines.Csa_opt.allocate netlist ~width
      (Dp_baselines.Rows.of_matrix ~width matrix)
  | Conventional -> invalid_arg "Synth.reduce_matrix: not a matrix strategy"

let rows_max_arrival netlist (row_a, row_b) =
  Array.fold_left
    (fun acc slot ->
      match slot with
      | None -> acc
      | Some net -> Float.max acc (Netlist.arrival netlist net))
    (Array.fold_left
       (fun acc slot ->
         match slot with
         | None -> acc
         | Some net -> Float.max acc (Netlist.arrival netlist net))
       0.0 row_a)
    row_b

(* Synthesize one output into [netlist]: the strategy's word-level or
   bit-level structure plus its final adder.  Returns the output bus
   and, for a matrix strategy, the latest arrival among the final
   adder's operand bits. *)
let synth_output ~adder ~lower_config (strategy : Strategy.t) netlist env
    expr ~width =
  match strategy with
  | Conventional ->
    let config = { Dp_baselines.Conventional.default_config with adder } in
    (Dp_baselines.Conventional.synthesize ~config netlist env expr ~width, None)
  | Csa_opt | Fa_aot | Fa_aot_combined | Fa_aot_fa3 | Fa_alp | Fa_alp_combined
  | Fa_random _ | Wallace | Dadda | Column_isolation | Sc_t_gpc | Sc_lp_gpc
  | Dadda_gpc ->
    let matrix =
      Dp_bitmatrix.Lower.lower ~config:lower_config netlist env expr ~width
    in
    let final_rows = reduce_matrix strategy netlist ~width matrix in
    let arrival = rows_max_arrival netlist final_rows in
    (Dp_adders.Adder.build_rows adder netlist ~width final_rows, Some arrival)

(* Post-synthesis integrity gate: structural lint plus the CPA-boundary
   width consistency of every declared output bus. *)
let check_netlist ~check_level netlist ports =
  match (check_level : Dp_verify.Lint.check_level) with
  | Off -> Ok ()
  | Warn | Strict -> (
    match Dp_verify.Lint.gate ~level:check_level netlist with
    | Error _ as e -> e
    | Ok () ->
      let rec widths = function
        | [] -> Ok ()
        | (name, width) :: rest ->
          let declared = Array.length (Netlist.find_output netlist name) in
          if declared <> width then
            Dp_diag.Diag.error
              (Dp_diag.Diag.errorf ~code:"DP-SYNTH003" ~subsystem:"synth"
                 ~context:[ ("output", name) ]
                 "output %s is %d bits wide at the final adder boundary, but \
                  %d bits were requested"
                 name declared width)
          else widths rest
      in
      widths ports)

type port = { name : string; expr : Ast.t; width : int }

type multi_result = {
  strategy : Strategy.t;
  netlist : Netlist.t;
  ports : port list;
  stats : Stats.t;
  tree_switching : float;
  total_switching : float;
}

(* The one synthesis core: several outputs into ONE netlist.  Inputs and
   — through the builder's structural hashing — partial-product gates
   are shared across outputs; each output gets its own FA-tree and final
   adder.  This is the paper's "applying our algorithm to all arithmetic
   expressions in a circuit iteratively"; a single output is the
   one-port case.  Also returns each port's tree arrival. *)
let build ?(tech = Dp_tech.Tech.lcb_like) ?(adder = Dp_adders.Adder.Cla)
    ?(lower_config = Dp_bitmatrix.Lower.default_config)
    ?(check_level = Dp_verify.Lint.Off) strategy env ports =
  (match ports with [] -> invalid_arg "Synth.run_multi: no outputs" | _ :: _ -> ());
  let netlist = Netlist.create ~tech in
  let arrivals =
    List.map
      (fun p ->
        let out, arrival =
          synth_output ~adder ~lower_config strategy netlist env p.expr
            ~width:p.width
        in
        Netlist.set_output netlist p.name out;
        arrival)
      ports
  in
  Dp_diag.Diag.get_ok
    (check_netlist ~check_level netlist
       (List.map (fun p -> (p.name, p.width)) ports));
  ( {
      strategy;
      netlist;
      ports;
      stats = Stats.of_netlist netlist;
      tree_switching = Dp_power.Switching.tree_switching netlist;
      total_switching = Dp_power.Switching.total_switching netlist;
    },
    arrivals )

let run_multi ?tech ?adder ?lower_config ?check_level strategy env ports =
  fst (build ?tech ?adder ?lower_config ?check_level strategy env ports)

let run ?tech ?adder ?lower_config ?width ?check_level strategy env expr =
  let width =
    match width with Some w -> w | None -> Range.natural_width env expr
  in
  let m, arrivals =
    build ?tech ?adder ?lower_config ?check_level strategy env
      [ { name = output_name; expr; width } ]
  in
  {
    strategy;
    netlist = m.netlist;
    output = output_name;
    width;
    stats = m.stats;
    tree_switching = m.tree_switching;
    total_switching = m.total_switching;
    reduced_max_arrival = List.hd arrivals;
  }

(* No exception may escape the [_res] entry points: anything the typed
   paths don't already cover (a [Failure] from a library call, a stack
   overflow on a pathological expression, ...) is converted to the
   [DP-INTERNAL] catch-all so fuzzing and the CLI always see a [Diag.t].
   [Sys.Break] (ctrl-C) is deliberately re-raised.  [exprs] are checked
   against [env] first ([DP-ENV003]). *)
let guarded strategy env exprs f =
  match
    List.fold_left
      (fun acc expr -> Result.bind acc (fun () -> Env.check_covers_res expr env))
      (Ok ()) exprs
  with
  | Error _ as e -> e
  | Ok () -> (
    match f () with
    | r -> Ok r
    | exception Dp_diag.Diag.E d -> Error d
    | exception Invalid_argument msg ->
      Dp_diag.Diag.error
        (Dp_diag.Diag.v ~code:"DP-SYNTH001" ~subsystem:"synth"
           ~context:[ ("strategy", Strategy.name strategy) ]
           msg)
    | exception (Sys.Break as e) -> raise e
    | exception e ->
      Dp_diag.Diag.error
        (Dp_diag.Diag.errorf ~code:"DP-INTERNAL" ~subsystem:"synth"
           ~context:[ ("strategy", Strategy.name strategy) ]
           "unexpected exception escaped the synthesis flow: %s"
           (Printexc.to_string e)))

let run_res ?tech ?adder ?lower_config ?width ?check_level strategy env expr =
  guarded strategy env [ expr ] (fun () ->
      run ?tech ?adder ?lower_config ?width ?check_level strategy env expr)

let run_multi_res ?tech ?adder ?lower_config ?check_level strategy env ports =
  guarded strategy env
    (List.map (fun (p : port) -> p.expr) ports)
    (fun () -> run_multi ?tech ?adder ?lower_config ?check_level strategy env ports)

(* Try every final-adder architecture and keep the fastest netlist — the
   flow-level analogue of letting downstream logic synthesis restructure
   the final CPA for the tree's output arrival profile. *)
let run_best_adder ?tech ?lower_config ?width strategy env expr =
  let candidates =
    List.map
      (fun adder -> run ?tech ~adder ?lower_config ?width strategy env expr)
      Dp_adders.Adder.all
  in
  match candidates with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun (best : result) (r : result) ->
        if r.stats.delay < best.stats.delay then r else best)
      first rest

(* Random functional equivalence of each port against its expression;
   the first failing port's name with its mismatch. *)
let check_ports ~trials ?env netlist ports =
  let signed =
    match env with
    | None -> fun (_ : string) -> false
    | Some env -> fun x -> Env.mem x env && Env.is_signed x env
  in
  let rec go = function
    | [] -> Ok ()
    | p :: rest -> (
      match
        Dp_sim.Equiv.check_random ~signed ~trials netlist p.expr
          ~output:p.name ~width:p.width
      with
      | Ok () -> go rest
      | Error m -> Error (p.name, m))
  in
  go ports

let verify_multi ?(trials = 120) ?env (result : multi_result) =
  check_ports ~trials ?env result.netlist result.ports

let verify ?(trials = 200) ?env (result : result) expr =
  Result.map_error snd
    (check_ports ~trials ?env result.netlist
       [ { name = result.output; expr; width = result.width } ])
