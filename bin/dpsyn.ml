(* dpsyn — the command-line front end: parse an arithmetic expression with
   per-input bit-widths/arrival-times/probabilities, synthesize it with a
   chosen strategy, and report delay/area/power or emit Verilog/DOT.

   Examples:
     dpsyn synth -e "x^2 + x + y" -v x:8:0.7 -v y:8 --strategy fa_aot
     dpsyn synth -e "a*c - b*d" -v a:16 -v b:16 -v c:16 -v d:16 \
           --verilog out.v --check
     dpsyn compare -e "x + y - z + x*y - y*z + 10" -v x:8 -v y:8 -v z:8
     dpsyn designs
     dpsyn design IDCT --strategy csa_opt *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Argument parsing *)

(* name:width[s][:arrival[:prob]], the syntax of the corpus [var] lines
   and of the fuzzer's repro commands: every field is validated here, so
   a bad spec fails at the command line with a message that names it. *)
let var_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Dp_fuzz.Case.var_spec_of_string s)
  in
  Arg.conv (parse, Fmt.using Dp_fuzz.Case.var_spec_to_string Fmt.string)

let expr_conv =
  let parse s =
    match Dp_expr.Parse.expr s with
    | e -> Ok e
    | exception Dp_expr.Parse.Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Dp_expr.Ast.pp)

let strategy_conv =
  let parse s =
    match Dp_flow.Strategy.of_name s with
    | Some st -> Ok st
    | None -> Error (`Msg (s ^ ": unknown strategy"))
  in
  Arg.conv (parse, Dp_flow.Strategy.pp)

let adder_names =
  String.concat ", " (List.map Dp_adders.Adder.name Dp_adders.Adder.all)

let adder_conv =
  let parse s =
    match Dp_adders.Adder.of_name s with
    | Some a -> Ok a
    | None -> Error (`Msg (Fmt.str "%s: unknown adder (%s)" s adder_names))
  in
  Arg.conv (parse, Dp_adders.Adder.pp)

let expr_arg =
  Arg.(
    required
    & opt (some expr_conv) None
    & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Arithmetic expression (+ - * ^ parens).")

let vars_arg =
  Arg.(
    value & opt_all var_conv []
    & info [ "v"; "var" ] ~docv:"NAME:W[s][:T[:P]]"
        ~doc:
          "Input variable: name, bit-width (suffix 's' for signed), optional \
           arrival time (ns) and 1-probability, applied uniformly to all \
           bits.")

let width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "width" ] ~docv:"W" ~doc:"Output width (default: natural width).")

let strategy_arg ~default =
  Arg.(
    value & opt strategy_conv default
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          ("Allocation strategy, case-insensitive: "
          ^ String.concat ", "
              (List.map
                 (fun st -> String.lowercase_ascii (Dp_flow.Strategy.name st))
                 Dp_flow.Strategy.all)
          ^ " (fa_random[N] seeds the random allocation with N)."))

(* A path, loaded by [load_tech] in the command's action, so that a bad
   file is a DP-TECH diagnostic (exit 3), not a usage error.  [serve]
   also passes the path on to its shard processes. *)
let tech_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tech" ] ~docv:"FILE"
        ~doc:"Technology file (key value lines); defaults inherit lcb_like.")

let adder_arg =
  Arg.(
    value & opt adder_conv Dp_adders.Adder.Cla
    & info [ "adder" ] ~docv:"A" ~doc:("Final adder: " ^ adder_names ^ "."))

let recoding_arg =
  Arg.(
    value
    & opt (enum [ ("csd", Dp_bitmatrix.Lower.Csd); ("binary", Dp_bitmatrix.Lower.Binary) ])
        Dp_bitmatrix.Lower.Csd
    & info [ "recoding" ] ~doc:"Coefficient recoding: csd or binary.")

let multiplier_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("and-array", Dp_bitmatrix.Lower.And_array);
             ("booth", Dp_bitmatrix.Lower.Booth) ])
        Dp_bitmatrix.Lower.And_array
    & info [ "multiplier" ]
        ~doc:"Partial products for eligible variable products: and-array or booth.")

let verilog_arg =
  Arg.(
    value & opt (some string) None
    & info [ "verilog" ] ~docv:"FILE" ~doc:"Write the netlist as Verilog.")

let dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the netlist as Graphviz DOT.")

let testbench_arg =
  Arg.(
    value & opt (some string) None
    & info [ "testbench" ] ~docv:"FILE"
        ~doc:"Write DUT + self-checking testbench as one Verilog file.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ] ~doc:"Verify the netlist against the expression on random vectors.")

let cells_arg =
  Arg.(value & flag & info [ "cells" ] ~doc:"Print every cell with its output arrivals.")

let pipeline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "pipeline" ] ~docv:"T"
        ~doc:"Report a pipeline plan (latency, register bits) for cycle time T ns.")

let check_level_arg =
  let level_conv =
    let parse s =
      match Dp_verify.Lint.check_level_of_name s with
      | Some l -> Ok l
      | None -> Error (`Msg (s ^ ": expected off, warn or strict"))
    in
    let print ppf l = Fmt.string ppf (Dp_verify.Lint.check_level_name l) in
    Arg.conv (parse, print)
  in
  Arg.(
    value & opt level_conv Dp_verify.Lint.Off
    & info [ "check-level" ] ~docv:"LEVEL"
        ~doc:
          "Structural integrity gate on the synthesized netlist: off (default), \
           warn (report lint findings, proceed), strict (fail on any \
           warning-or-worse finding).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print one machine-readable dpsyn-result/1 record per synthesized \
           netlist (the same record the server protocol returns) instead of \
           the human-readable report.  See doc/protocol.md.")

(* ------------------------------------------------------------------ *)
(* Shared actions *)

let env_of_specs vars = Dp_fuzz.Case.env { Dp_fuzz.Case.vars; ports = [] }

let env_of_vars expr vars =
  let env = env_of_specs vars in
  match Dp_expr.Env.check_covers_res expr env with
  | Ok () -> Ok env
  | Error d -> Error (Dp_diag.Diag.to_string d)

let fail_diag d =
  Fmt.epr "error: %a@." Dp_diag.Diag.pp d;
  exit 3

let fail_diag_json d =
  prerr_endline
    (Dp_server.Json.to_string
       (Dp_server.Json.Obj [ ("error", Dp_server.Protocol.diag_to_json d) ]));
  exit 3

(* A --tech path; a file that does not load is reported like every other
   DP-* diagnostic of the command, as JSON under --json. *)
let load_tech ?(json = false) = function
  | None -> Dp_tech.Tech.lcb_like
  | Some path -> (
    match Dp_tech.Tech_file.of_file_res path with
    | Ok t -> t
    | Error d -> if json then fail_diag_json d else fail_diag d)

(* CLI -v specs carry one uniform arrival/probability per variable. *)
let var_specs_of_vars vars =
  List.map
    (fun (v : Dp_fuzz.Case.var_spec) ->
      Dp_server.Protocol.var_spec ~signed:v.signed
        ~arrival:(Array.make v.width v.arrival)
        ~prob:(Array.make v.width v.prob) v.name ~width:v.width)
    vars

let var_specs_of_env env =
  List.map
    (fun (name, (v : Dp_expr.Env.var_info)) ->
      Dp_server.Protocol.var_spec ~signed:v.signed ~arrival:v.arrival
        ~prob:v.prob name ~width:v.width)
    (Dp_expr.Env.bindings env)

(* The --json path goes through the same cache-layer serving core as the
   server, so the record (digest included) matches what [dpsyn serve]
   returns for the same request. *)
let synth_record ?(emit_verilog = false) ~tech ~vars ~width ~strategy ~adder
    ~lower_config ~check_level expr =
  let ( let* ) r k = match r with Ok v -> k v | Error d -> fail_diag_json d in
  let* p =
    Dp_server.Protocol.synth_params ~vars ~width ~strategy ~adder
      ~lower_config ~check_level ~emit_verilog
      (Dp_expr.Ast.to_string expr)
  in
  let* r = Dp_server.Protocol.serve_request ~tech p in
  let* o = Dp_cache.Serve.run r in
  (p, o)

let print_record (p, o) =
  print_endline
    (Dp_server.Json.to_string (Dp_server.Protocol.result_record p o))

let report_result (r : Dp_flow.Synth.result) ~env ~check ~cells ~verilog ~dot
    ?testbench ?pipeline expr =
  Fmt.pr "strategy:   %a@." Dp_flow.Strategy.pp r.strategy;
  Fmt.pr "output:     %s[%d:0]@." r.output (r.width - 1);
  Fmt.pr "stats:      %a@." Dp_netlist.Stats.pp r.stats;
  (match r.reduced_max_arrival with
  | Some t -> Fmt.pr "final adder sees its last input at %.3f ns@." t
  | None -> ());
  Fmt.pr "E_switching(tree) = %.4f, E_switching(total) = %.4f@."
    r.tree_switching r.total_switching;
  let e = Dp_timing.Sta.critical_endpoint r.netlist in
  Fmt.pr "critical endpoint: %a@." Dp_timing.Sta.pp_endpoint e;
  (match pipeline with
  | Some cycle_time -> (
    match Dp_pipeline.Pipeline.plan r.netlist ~cycle_time with
    | p -> Fmt.pr "pipeline:   %a@." Dp_pipeline.Pipeline.pp p
    | exception Invalid_argument msg -> Fmt.pr "pipeline:   %s@." msg)
  | None -> ());
  if cells then Fmt.pr "@.cells:@.%a" Dp_netlist.Stats.pp_cells r.netlist;
  (match verilog with
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Dp_netlist.Verilog.emit r.netlist));
    Fmt.pr "wrote %s@." file
  | None -> ());
  (match dot with
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Dp_netlist.Dot.emit r.netlist));
    Fmt.pr "wrote %s@." file
  | None -> ());
  (match testbench with
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        output_string oc (Dp_sim.Testbench.emit_with_dut r.netlist));
    Fmt.pr "wrote %s@." file
  | None -> ());
  if check then
    (* ~env so signed inputs are interpreted in two's complement *)
    match Dp_flow.Synth.verify ~trials:500 ~env r expr with
    | Ok () -> Fmt.pr "equivalence check: OK (500 random vectors)@."
    | Error m ->
      Fmt.epr "equivalence check FAILED: %a@." Dp_sim.Equiv.pp_mismatch m;
      exit 2

(* ------------------------------------------------------------------ *)
(* Commands *)

let synth_cmd =
  let action expr vars width strategy tech_file adder recoding multiplier_style
      verilog dot testbench pipeline check cells check_level json =
    let tech = load_tech ~json tech_file in
    if json then begin
      let ((_, o) as record) =
        synth_record ~tech ~vars:(var_specs_of_vars vars) ~width ~strategy
          ~adder
          ~lower_config:{ recoding; multiplier_style }
          ~check_level expr
      in
      (match verilog with
      | Some file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc o.Dp_cache.Serve.verilog)
      | None -> ());
      print_record record
    end
    else
      match env_of_vars expr vars with
      | Error msg ->
        Fmt.epr "error: %s (bind it with -v)@." msg;
        exit 1
      | Ok env -> (
        match
          Dp_flow.Synth.run_res ~tech ~adder
            ~lower_config:{ recoding; multiplier_style }
            ?width ~check_level strategy env expr
        with
        | Error d -> fail_diag d
        | Ok r ->
          report_result r ~env ~check ~cells ~verilog ~dot ?testbench ?pipeline
            expr)
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize one expression")
    Term.(
      const action $ expr_arg $ vars_arg $ width_arg
      $ strategy_arg ~default:Dp_flow.Strategy.Fa_aot
      $ tech_arg $ adder_arg $ recoding_arg $ multiplier_arg $ verilog_arg
      $ dot_arg $ testbench_arg $ pipeline_arg $ check_arg $ cells_arg
      $ check_level_arg $ json_arg)

let compare_cmd =
  let action expr vars width adder check_level json =
    if json then
      (* One dpsyn-result/1 record per strategy, one line each. *)
      List.iter
        (fun strategy ->
          print_record
            (synth_record ~tech:Dp_tech.Tech.lcb_like
               ~vars:(var_specs_of_vars vars) ~width ~strategy ~adder
               ~lower_config:Dp_bitmatrix.Lower.default_config ~check_level
               expr))
        Dp_flow.Strategy.all
    else
    match env_of_vars expr vars with
    | Error msg ->
      Fmt.epr "error: %s (bind it with -v)@." msg;
      exit 1
    | Ok env ->
      let rows =
        List.map
          (fun strategy ->
            let r =
              match
                Dp_flow.Synth.run_res ~adder ?width ~check_level strategy env
                  expr
              with
              | Ok r -> r
              | Error d -> fail_diag d
            in
            [
              Dp_flow.Strategy.name strategy;
              Dp_flow.Report.ns r.stats.delay;
              Dp_flow.Report.units r.stats.area;
              string_of_int r.stats.fa_count;
              string_of_int r.stats.ha_count;
              Printf.sprintf "%.3f" r.tree_switching;
            ])
          Dp_flow.Strategy.all
      in
      Fmt.pr "%s@."
        (Dp_flow.Report.table
           ~header:[ "strategy"; "delay"; "area"; "FA"; "HA"; "E(tree)" ]
           ~rows)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Synthesize with every strategy and tabulate")
    Term.(
      const action $ expr_arg $ vars_arg $ width_arg $ adder_arg
      $ check_level_arg $ json_arg)

let lint_cmd =
  let action expr vars width strategy tech_file adder =
    let tech = load_tech tech_file in
    match env_of_vars expr vars with
    | Error msg ->
      Fmt.epr "error: %s (bind it with -v)@." msg;
      exit 1
    | Ok env -> (
      match Dp_flow.Synth.run_res ~tech ~adder ?width strategy env expr with
      | Error d -> fail_diag d
      | Ok r ->
        let findings = Dp_verify.Lint.run r.netlist in
        List.iter (Fmt.pr "%a@." Dp_verify.Lint.pp_finding) findings;
        let count sev =
          List.length
            (List.filter
               (fun (f : Dp_verify.Lint.finding) -> f.severity = sev)
               findings)
        in
        let errors = count Dp_diag.Diag.Error in
        Fmt.pr "lint: %d error(s), %d warning(s), %d note(s) over %d nets, %d cells@."
          errors
          (count Dp_diag.Diag.Warning)
          (count Dp_diag.Diag.Info)
          (Dp_netlist.Netlist.net_count r.netlist)
          (Dp_netlist.Netlist.cell_count r.netlist);
        if errors > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Synthesize one expression and report every structural integrity \
          finding of the resulting netlist")
    Term.(
      const action $ expr_arg $ vars_arg $ width_arg
      $ strategy_arg ~default:Dp_flow.Strategy.Fa_aot
      $ tech_arg $ adder_arg)

let program_conv =
  let parse s =
    match Dp_expr.Parse.program s with
    | ports -> Ok ports
    | exception Dp_expr.Parse.Error msg -> Error (`Msg msg)
  in
  let print ppf ports =
    Fmt.(list ~sep:(any "; ") (pair ~sep:(any " = ") string Dp_expr.Ast.pp)) ppf ports
  in
  Arg.conv (parse, print)

let synth_multi_cmd =
  let program_arg =
    Arg.(
      required
      & opt (some program_conv) None
      & info [ "p"; "program" ] ~docv:"PROG"
          ~doc:
            "Program: ';'-separated 'name = expr' statements.  Bindings \
             referenced later are inlined; the rest become output ports.")
  in
  let action ports vars strategy adder verilog check =
    let env = env_of_specs vars in
    let missing =
      List.concat_map
        (fun (_, e) ->
          List.filter (fun v -> not (Dp_expr.Env.mem v env)) (Dp_expr.Ast.vars e))
        ports
    in
    (match missing with
    | [] -> ()
    | v :: _ ->
      Fmt.epr "error: %s has no binding (bind it with -v)@." v;
      exit 1);
    let ports =
      List.map
        (fun (name, e) ->
          { Dp_flow.Synth.name; expr = e; width = Dp_expr.Range.natural_width env e })
        ports
    in
    let r = Dp_flow.Synth.run_multi ~adder strategy env ports in
    Fmt.pr "outputs:@.";
    List.iter
      (fun (p : Dp_flow.Synth.port) ->
        Fmt.pr "  %s[%d:0] = %a@." p.name (p.width - 1) Dp_expr.Ast.pp p.expr)
      r.ports;
    Fmt.pr "stats: %a@." Dp_netlist.Stats.pp r.stats;
    (match verilog with
    | Some file ->
      Out_channel.with_open_text file (fun oc ->
          output_string oc (Dp_netlist.Verilog.emit r.netlist));
      Fmt.pr "wrote %s@." file
    | None -> ());
    if check then
      match Dp_flow.Synth.verify_multi ~env r with
      | Ok () -> Fmt.pr "equivalence check: OK (all ports)@."
      | Error (port, m) ->
        Fmt.epr "port %s FAILED: %a@." port Dp_sim.Equiv.pp_mismatch m;
        exit 2
  in
  Cmd.v
    (Cmd.info "synth-multi"
       ~doc:"Synthesize a multi-statement program into one netlist")
    Term.(
      const action $ program_arg $ vars_arg
      $ strategy_arg ~default:Dp_flow.Strategy.Fa_aot
      $ adder_arg $ verilog_arg $ check_arg)

let fuzz_cmd =
  let ival ~default name doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let seed_arg = ival ~default:42 "seed" "PRNG seed; the run is a pure function of it." in
  let cases_arg = ival ~default:500 "cases" "Number of generated cases." in
  let max_size_arg =
    ival ~default:Dp_fuzz.Gen.default_config.max_size "max-size"
      "Maximum expression size (AST nodes) per generated case."
  in
  let trials_arg =
    ival ~default:Dp_fuzz.Oracle.default_config.trials "trials"
      "Random input vectors per case, on top of the corner patterns."
  in
  let strategy_opt =
    Arg.(
      value & opt (some strategy_conv) None
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Restrict the oracle to one strategy (default: all).")
  in
  let adder_opt =
    Arg.(
      value & opt (some adder_conv) None
      & info [ "adder" ] ~docv:"A"
          ~doc:"Restrict the oracle to one final adder (default: all).")
  in
  let timeout_arg =
    Arg.(
      value & opt float Dp_fuzz.Budget.default.timeout_s
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per strategy/adder pair; 0 disables.")
  in
  let max_cells_arg =
    ival ~default:Dp_fuzz.Budget.default.max_cells "max-cells"
      "Cell-count budget per synthesized netlist; 0 disables."
  in
  let max_rows_arg =
    ival ~default:Dp_fuzz.Budget.default.max_rows "max-rows"
      "Estimated addend-matrix-height budget per case; 0 disables."
  in
  let inject_every_arg =
    ival ~default:0 "inject-every"
      "Every Nth case also runs a netlist fault-injection check (0: off)."
  in
  let multi_every_arg =
    ival ~default:Dp_fuzz.Gen.default_config.multi_every "multi-every"
      "Every Nth case is a multi-output program (0: never)."
  in
  let crypto_fuzz_arg =
    Arg.(
      value & flag
      & info [ "crypto" ]
          ~doc:
            "Generate from the crypto envelope (Gen.crypto_config: \
             limb-sized operands up to 48 bits, deep MAC chains, \
             wNAF-style signed sums) and tighten the per-case budget \
             (timeout and row ceiling clamped to 2 s / 1024 rows) so \
             heavyweight cases prove graceful bounded aborts instead of \
             dominating the run.")
  in
  let corpus_arg =
    Arg.(
      value & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Save shrunk reproducers for every finding into DIR.")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"DIR"
          ~doc:
            "Replay every *.repro file in DIR instead of generating cases; \
             exits non-zero if any entry regresses.")
  in
  let action seed cases max_size trials strategy adder timeout max_cells
      max_rows inject_every multi_every crypto corpus replay =
    match replay with
    | Some dir -> (
      match Dp_fuzz.Driver.replay_dir dir with
      | Ok n -> Fmt.pr "replayed %d corpus entries: all OK@." n
      | Error failures ->
        List.iter
          (fun (path, d) -> Fmt.epr "%s: %a@." path Dp_diag.Diag.pp d)
          failures;
        exit 2)
    | None ->
      let base_gen =
        if crypto then Dp_fuzz.Gen.crypto_config
        else Dp_fuzz.Gen.default_config
      in
      let gen = { base_gen with max_size; multi_every } in
      let budget =
        if crypto then
          {
            Dp_fuzz.Budget.timeout_s =
              (if timeout <= 0.0 then 2.0 else Float.min timeout 2.0);
            max_cells;
            max_rows = (if max_rows <= 0 then 1024 else min max_rows 1024);
          }
        else { Dp_fuzz.Budget.timeout_s = timeout; max_cells; max_rows }
      in
      let oracle =
        {
          Dp_fuzz.Oracle.default_config with
          trials;
          budget;
          strategies =
            (match strategy with
            | Some s -> [ s ]
            | None -> Dp_flow.Strategy.all);
          adders =
            (match adder with Some a -> [ a ] | None -> Dp_adders.Adder.all);
        }
      in
      let config =
        {
          Dp_fuzz.Driver.default_config with
          seed;
          cases;
          gen;
          oracle;
          inject_every;
          corpus_dir = corpus;
          log = (fun msg -> Fmt.epr "%s@." msg);
        }
      in
      let report = Dp_fuzz.Driver.run config in
      Fmt.pr "%a@." Dp_fuzz.Driver.pp_report report;
      List.iter
        (fun (f : Dp_fuzz.Driver.finding) ->
          Fmt.pr "@.finding %s under %a/%a:@." f.shrunk_diag.Dp_diag.Diag.code
            Dp_flow.Strategy.pp f.failure.Dp_fuzz.Oracle.strategy
            Dp_adders.Adder.pp f.failure.Dp_fuzz.Oracle.adder;
          Fmt.pr "  %a@." Dp_diag.Diag.pp f.shrunk_diag;
          Fmt.pr "  repro: %s@."
            (Dp_fuzz.Case.synth_command
               ~strategy:f.failure.Dp_fuzz.Oracle.strategy
               ~adder:f.failure.Dp_fuzz.Oracle.adder f.shrunk);
          match f.saved with
          | Some path -> Fmt.pr "  saved: %s@." path
          | None -> ())
        report.findings;
      if report.findings <> [] then exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random cases through every strategy and \
          adder, checked against an arbitrary-precision reference; failures \
          are shrunk to minimal reproducers")
    Term.(
      const action $ seed_arg $ cases_arg $ max_size_arg $ trials_arg
      $ strategy_opt $ adder_opt $ timeout_arg $ max_cells_arg $ max_rows_arg
      $ inject_every_arg $ multi_every_arg $ crypto_fuzz_arg $ corpus_arg
      $ replay_arg)

let designs_cmd =
  let action () =
    List.iter
      (fun (d : Dp_designs.Design.t) ->
        Fmt.pr "%-16s W=%-3d %a@.                 %s@." d.name d.width
          Dp_expr.Ast.pp d.expr d.description)
      Dp_designs.Catalog.all
  in
  Cmd.v (Cmd.info "designs" ~doc:"List the paper's benchmark designs")
    Term.(const action $ const ())

let design_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let action name strategy adder check cells verilog dot check_level =
    match Dp_designs.Catalog.find name with
    | None ->
      Fmt.epr "unknown design %s; see 'dpsyn designs'@." name;
      exit 1
    | Some d -> (
      match
        Dp_flow.Synth.run_res ~adder ~width:d.width ~check_level strategy
          d.env d.expr
      with
      | Error diag -> fail_diag diag
      | Ok r ->
        Fmt.pr "design: %s — %s@." d.name d.description;
        report_result r ~env:d.env ~check ~cells ~verilog ~dot d.expr)
  in
  Cmd.v (Cmd.info "design" ~doc:"Synthesize one of the paper's designs")
    Term.(
      const action $ name_arg
      $ strategy_arg ~default:Dp_flow.Strategy.Fa_aot
      $ adder_arg $ check_arg $ cells_arg $ verilog_arg $ dot_arg
      $ check_level_arg)

(* ------------------------------------------------------------------ *)
(* Server mode *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

(* The flags [serve] and [soak] share: a soak's are the settings of the
   servers it runs. *)
let serve_defaults = Dp_server.Exec.default ~dpsyn:Sys.executable_name

let workers_arg =
  Arg.(
    value & opt int serve_defaults.workers
    & info [ "workers" ] ~docv:"N" ~doc:"Worker threads in each server's pool.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Content-addressed on-disk store (created if missing), shared by \
           every shard; cache-corruption chaos corrupts its entries.")

let crash_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "crash-dir" ] ~docv:"DIR"
        ~doc:
          "Write a .repro crash dump (fuzz-corpus format) for every worker \
           crash.")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "The sharded topology: N shard server processes (one per digest \
           range, each exec'd as its own 'dpsyn serve' on SOCKET.<i>, \
           sharing --cache-dir) behind a health-checked router on SOCKET \
           that fails over while a dead shard restarts.  0 or 1 = a single \
           in-process server.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:
          "Durable exactly-once serving (sharded only): journal every \
           admitted request to DIR and record the shard fleet there, so \
           a crashed router's next incarnation replays incomplete \
           requests and reattaches to still-live shards instead of \
           respawning them.  A soak execs that router as its own 'dpsyn \
           serve', which --router-chaos SIGKILLs mid-flight.")

let hedge_arg =
  Arg.(
    value & flag
    & info [ "hedge" ]
        ~doc:
          "Hedged dispatch (sharded only): duplicate a request that \
           outlives the p95 of recent forward latencies to the next \
           live shard; first answer wins, both are byte-compared \
           (mismatch = DP-SRV-DIVERGE, never a silently picked \
           answer).")

(* --chaos, --chaos-every, --mem-chaos and --net-chaos: the chaos config
   for a seed, [None] without a fault flag.  An exec'd server is handed
   the same flags. *)
let chaos_term =
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject seeded faults (worker panics, stalls, torn responses, \
             cache corruption, result corruption) to exercise the resilience \
             layer.  Testing only.")
  in
  let every_arg =
    Arg.(
      value
      & opt int Dp_server.Chaos.default_config.every
      & info [ "chaos-every" ] ~docv:"K" ~doc:"Inject on every Kth action.")
  in
  let mem_arg =
    Arg.(
      value & flag
      & info [ "mem-chaos" ]
          ~doc:
            "Add the memory fault class (Mem_squeeze: run a request under \
             a one-word heap watermark, which must surface as a typed \
             DP-BUDGET-MEM) to the chaos schedule.  Implies --chaos.")
  in
  let net_arg =
    Arg.(
      value & flag
      & info [ "net-chaos" ]
          ~doc:
            "Add the network fault class (delayed responses, duplicated \
             response lines, connections dropped mid-line) to the chaos \
             schedule.  Implies --chaos.")
  in
  let config chaos every mem net ~seed =
    if chaos || mem || net then
      Some
        {
          Dp_server.Chaos.default_config with
          seed;
          every;
          faults = Dp_server.Chaos.faults ~mem ~net;
        }
    else None
  in
  Term.(const config $ chaos_arg $ every_arg $ mem_arg $ net_arg)

let serve_cmd =
  let d = serve_defaults in
  let queue_arg =
    Arg.(
      value & opt int d.queue_depth
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Bound on queued jobs; producers block past it (backpressure).")
  in
  let timeout_arg =
    Arg.(
      value & opt float d.budget.timeout_s
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per request; 0 disables.")
  in
  let max_cells_arg =
    Arg.(
      value & opt int d.budget.max_cells
      & info [ "max-cells" ] ~docv:"N"
          ~doc:"Cell-count budget per synthesized netlist; 0 disables.")
  in
  let max_rows_arg =
    Arg.(
      value & opt int d.budget.max_rows
      & info [ "max-rows" ] ~docv:"N"
          ~doc:
            "Admission bound on the statically estimated addend-matrix \
             height; a request over it is refused with DP-SRV-TOOBIG \
             before it is queued.  0 disables.")
  in
  let mem_watermark_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-watermark-mb" ] ~docv:"MB"
          ~doc:
            "Heap watermark: above it, new requests are shed with \
             DP-SRV-OVERLOAD and in-flight requests abort at their next \
             checkpoint with DP-BUDGET-MEM.")
  in
  let capacity_arg =
    Arg.(
      value & opt int d.cache_capacity
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"In-memory LRU capacity (entries).")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the netlist cache.")
  in
  let max_crashes_arg =
    Arg.(
      value & opt int d.max_crashes
      & info [ "max-crashes" ] ~docv:"N"
          ~doc:
            "Worker crashes tolerated per window before the circuit breaker \
             opens.")
  in
  let cooldown_arg =
    Arg.(
      value & opt float d.breaker_cooldown_s
      & info [ "breaker-cooldown" ] ~docv:"SECONDS"
          ~doc:"Open-breaker cooldown before the half-open probe.")
  in
  let guard_arg =
    Arg.(
      value & flag
      & info [ "guard-responses" ]
          ~doc:
            "Lint every outgoing netlist; findings become DP-SRV-CORRUPT \
             errors instead of wrong answers (always on under --chaos).")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Chaos schedule seed.")
  in
  let settings_term =
    let settings shards workers queue_depth timeout_s max_cells max_rows
        mem_watermark_mb cache_dir cache_capacity no_cache tech_file crash_dir
        max_crashes breaker_cooldown_s guard_responses chaos chaos_seed journal
        hedge =
      {
        Dp_server.Exec.dpsyn = Sys.executable_name;
        shards; workers; queue_depth;
        budget = { Dp_fuzz.Budget.timeout_s; max_cells; max_rows };
        mem_watermark_mb; cache_dir; cache_capacity; no_cache; tech_file;
        crash_dir; max_crashes; breaker_cooldown_s; guard_responses;
        chaos = chaos ~seed:chaos_seed;
        journal; hedge;
      }
    in
    Term.(
      const settings $ shards_arg $ workers_arg $ queue_arg $ timeout_arg
      $ max_cells_arg $ max_rows_arg $ mem_watermark_arg $ cache_dir_arg
      $ capacity_arg $ no_cache_arg $ tech_arg $ crash_dir_arg
      $ max_crashes_arg $ cooldown_arg $ guard_arg $ chaos_term
      $ chaos_seed_arg $ journal_arg $ hedge_arg)
  in
  let action socket (o : Dp_server.Exec.serve) =
    let tech = load_tech o.tech_file in
    let log = fun msg -> Fmt.epr "dpsyn serve: %s@." msg in
    if o.shards < 2 && (o.journal <> None || o.hedge) then begin
      Fmt.epr
        "error: --journal and --hedge need the sharded topology \
         (--shards >= 2)@.";
      exit 1
    end;
    (* The shard state file lives in the journal directory, and the pool
       writes it before the journal is opened — make the directory now. *)
    (match o.journal with
    | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
    | _ -> ());
    if o.shards >= 2 then begin
      (* Shards run this same executable with the same settings, serving
         one shard's socket each.  Shards never shard further. *)
      let pool =
        Dp_server.Shard_pool.start
          {
            (Dp_server.Shard_pool.default_config ~shards:o.shards
               ~socket_for:(fun i -> socket ^ "." ^ string_of_int i)
               ~spawn:
                 (Dp_server.Exec.argv { o with shards = 0; journal = None; hedge = false }))
            with
            Dp_server.Shard_pool.log;
            state_file =
              Option.map (fun d -> Filename.concat d "shards.json") o.journal;
          }
      in
      if not (Dp_server.Shard_pool.wait_all_up ~timeout_s:30.0 pool) then begin
        Fmt.epr "error: shards did not come up within 30s@.";
        Dp_server.Shard_pool.shutdown pool;
        exit 1
      end;
      let journal =
        Option.map (fun dir -> Dp_server.Journal.open_ ~dir ~log ()) o.journal
      in
      match
        Dp_server.Router.run
          {
            (Dp_server.Router.default_config ~socket_path:socket ~pool) with
            Dp_server.Router.tech;
            handle_signals = true;
            log;
            journal;
            hedge = o.hedge;
          }
      with
      | () -> ()
      | exception Unix.Unix_error (e, fn, arg) ->
        Fmt.epr "error: %s: %s (%s)@." fn (Unix.error_message e) arg;
        Dp_server.Shard_pool.shutdown pool;
        exit 1
    end
    else begin
      match
        Dp_server.Server.run
          {
            (Dp_server.Exec.server_config o ~socket_path:socket ~tech ~log) with
            handle_signals = true;
          }
      with
      | () -> ()
      | exception Unix.Unix_error (e, fn, arg) ->
        Fmt.epr "error: %s: %s (%s)@." fn (Unix.error_message e) arg;
        exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve synthesis over a Unix-domain socket (line-delimited JSON; \
          see doc/protocol.md) with a canonicalizing netlist cache, worker \
          supervision and deadline enforcement; --shards N serves a \
          fault-tolerant multi-process topology behind a routing front")
    Term.(const action $ socket_arg $ settings_term)

(* Shared retry flags for the client-side commands. *)
let retries_arg =
  Arg.(
    value
    & opt int Dp_server.Client.default_retry.attempts
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Total attempts (including the first) for retryable failures \
           (transport errors, DP-SRV-CRASH, DP-SRV-OVERLOAD); retried \
           requests are answered from the server's cache, so retrying is \
           idempotent.")

let attempt_timeout_arg =
  Arg.(
    value
    & opt float Dp_server.Client.default_retry.per_attempt_timeout_s
    & info [ "attempt-timeout" ] ~docv:"SECONDS"
        ~doc:"Client-side timeout per attempt; 0 disables.")

let retry_seed_arg =
  Arg.(
    value
    & opt int Dp_server.Client.default_retry.seed
    & info [ "retry-seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the retry loop's backoff-jitter PRNG, so a failing \
           run's exact retry timing can be replayed.")

let retry_of ~retries ~attempt_timeout ~retry_seed =
  {
    Dp_server.Client.attempts = max 1 retries;
    per_attempt_timeout_s = attempt_timeout;
    seed = retry_seed;
  }

let client_cmd =
  let op_arg =
    Arg.(
      value
      & opt (enum [ ("synth", `Synth); ("stats", `Stats); ("shutdown", `Shutdown) ]) `Synth
      & info [ "op" ] ~docv:"OP" ~doc:"Request: synth (default), stats, shutdown.")
  in
  let expr_opt =
    Arg.(
      value
      & opt (some expr_conv) None
      & info [ "e"; "expr" ] ~docv:"EXPR" ~doc:"Expression (op synth).")
  in
  let emit_verilog_arg =
    Arg.(
      value & flag
      & info [ "emit-verilog" ] ~doc:"Ask for the full Verilog text in the record.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Request deadline: the server fails the request fast with \
             DP-SRV-DEADLINE if it cannot finish (queue wait included) \
             within MS milliseconds.")
  in
  let action socket op expr vars width strategy adder recoding multiplier_style
      check_level emit_verilog deadline_ms retries attempt_timeout retry_seed =
    let envelope =
      match op with
      | `Stats -> { Dp_server.Protocol.id = Dp_server.Json.Int 1; req = Stats }
      | `Shutdown -> { Dp_server.Protocol.id = Dp_server.Json.Int 1; req = Shutdown }
      | `Synth -> (
        match expr with
        | None ->
          Fmt.epr "error: --op synth needs an expression (-e)@.";
          exit 1
        | Some expr -> (
          match
            Dp_server.Protocol.synth_params ~vars:(var_specs_of_vars vars)
              ~width ~strategy ~adder
              ~lower_config:{ recoding; multiplier_style }
              ~check_level ~emit_verilog ~deadline_ms
              (Dp_expr.Ast.to_string expr)
          with
          | Error d -> fail_diag_json d
          | Ok p ->
            { Dp_server.Protocol.id = Dp_server.Json.Int 1; req = Synth p }))
    in
    match
      Dp_server.Client.call
        ~retry:(retry_of ~retries ~attempt_timeout ~retry_seed)
        ~socket
        (Dp_server.Protocol.request_to_json envelope)
    with
    | Error d -> fail_diag d
    | Ok response ->
      print_endline (Dp_server.Json.to_string response);
      (match Dp_server.Json.(member "ok" response |> Fun.flip Option.bind to_bool) with
      | Some true -> ()
      | _ -> exit 2)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running dpsyn serve and print the response")
    Term.(
      const action $ socket_arg $ op_arg $ expr_opt $ vars_arg $ width_arg
      $ strategy_arg ~default:Dp_flow.Strategy.Fa_aot
      $ adder_arg $ recoding_arg $ multiplier_arg $ check_level_arg
      $ emit_verilog_arg $ deadline_arg $ retries_arg $ attempt_timeout_arg
      $ retry_seed_arg)

let batch_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"JSONL file: one synth request object per line.")
  in
  let designs_arg =
    Arg.(
      value & flag
      & info [ "designs" ]
          ~doc:"Use the paper's benchmark designs as the batch input.")
  in
  let summary_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "summary" ] ~docv:"FILE"
          ~doc:"Write a dpsyn-batch-summary/1 JSON object to FILE.")
  in
  let params_of_file path =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match Dp_server.Json.of_string line with
           | Error msg ->
             Fmt.epr "error: %s: %s@." path msg;
             exit 1
           | Ok j -> (
             match Dp_server.Protocol.params_of_json j with
             | Ok p -> p
             | Error d -> fail_diag_json d))
  in
  let params_of_designs strategy adder =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        match
          Dp_server.Protocol.synth_params ~vars:(var_specs_of_env d.env)
            ~width:(Some d.width) ~strategy ~adder
            (Dp_expr.Ast.to_string d.expr)
        with
        | Ok p -> p
        | Error d -> fail_diag_json d)
      Dp_designs.Catalog.all
  in
  let action socket file designs summary strategy adder retries attempt_timeout
      retry_seed =
    let params =
      match (file, designs) with
      | Some path, false -> params_of_file path
      | None, true -> params_of_designs strategy adder
      | _ ->
        Fmt.epr "error: give exactly one of FILE or --designs@.";
        exit 1
    in
    let envelope =
      { Dp_server.Protocol.id = Dp_server.Json.Int 1; req = Batch params }
    in
    match
      Dp_server.Client.call
        ~retry:(retry_of ~retries ~attempt_timeout ~retry_seed)
        ~socket
        (Dp_server.Protocol.request_to_json envelope)
    with
    | Error d -> fail_diag d
    | Ok response -> (
      let open Dp_server.Json in
      match member "results" response |> Fun.flip Option.bind to_list with
      | None ->
        (* Top-level failure (e.g. a DP-PROTO diagnostic). *)
        prerr_endline (to_string response);
        exit 2
      | Some elements ->
        let ok = ref 0 and errors = ref 0 and cached = ref 0 in
        List.iter
          (fun el ->
            (match member "ok" el |> Fun.flip Option.bind to_bool with
            | Some true ->
              incr ok;
              if member "cached" el |> Fun.flip Option.bind to_bool
                 = Some true
              then incr cached
            | _ -> incr errors);
            (* One line per element, in request order: the bare record on
               success (byte-comparable across passes), the error object
               otherwise. *)
            match member "result" el with
            | Some record -> print_endline (to_string record)
            | None -> print_endline (to_string el))
          elements;
        (match summary with
        | None -> ()
        | Some path ->
          let s =
            Obj
              [
                ("schema", Str "dpsyn-batch-summary/1");
                ("requests", Int (List.length elements));
                ("ok", Int !ok);
                ("errors", Int !errors);
                ("cached", Int !cached);
              ]
          in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (to_string s);
              output_char oc '\n'));
        if !errors > 0 then exit 2)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Send a concurrent batch of synthesis requests to a running dpsyn \
          serve; prints one result record per line, in request order")
    Term.(
      const action $ socket_arg $ file_arg $ designs_arg $ summary_arg
      $ strategy_arg ~default:Dp_flow.Strategy.Fa_aot
      $ adder_arg $ retries_arg $ attempt_timeout_arg $ retry_seed_arg)

let soak_cmd =
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let requests_arg =
    Arg.(
      value & opt int 50
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client thread.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Deterministic schedule for requests and chaos.")
  in
  let crypto_arg =
    Arg.(
      value & flag
      & info [ "crypto" ]
          ~doc:
            "Mix the crypto catalog's light designs (wide limbs, signed \
             wNAF operands, large coefficients) into the request pool.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Attach this deadline to every 5th request.")
  in
  let json_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the dpsyn-soak/1 report object to FILE.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ]
          ~doc:
            "Suppress the log lines of the soak and of a server or router \
             in its process; exec'd servers log to its stderr regardless.")
  in
  let shard_chaos_arg =
    Arg.(
      value & flag
      & info [ "shard-chaos" ]
          ~doc:
            "Inject seeded shard faults (SIGKILL / SIGSTOP a random \
             shard) while the sharded soak is in flight.")
  in
  let shard_chaos_every_arg =
    Arg.(
      value & opt int 5
      & info [ "shard-chaos-every" ] ~docv:"K"
          ~doc:"Inject a shard fault after every Kth answered request.")
  in
  let router_chaos_arg =
    Arg.(
      value & flag
      & info [ "router-chaos" ]
          ~doc:
            "Inject seeded router faults (SIGKILL the journaled router \
             process, exec the next incarnation, measure recovery) while \
             the soak is in flight.  Journaled runs only.")
  in
  let router_chaos_every_arg =
    Arg.(
      value & opt int 5
      & info [ "router-chaos-every" ] ~docv:"K"
          ~doc:"Inject a router fault after every Kth answered request.")
  in
  let action socket clients requests seed workers chaos crypto cache_dir
      crash_dir deadline_ms json_out quiet shards shard_chaos shard_chaos_every
      journal router_chaos router_chaos_every hedge =
    let d =
      Dp_server.Soak.default_config ~dpsyn:Sys.executable_name
        ~socket_path:socket
    in
    let schedule on every faults =
      if on then Some { Dp_server.Chaos.default_config with seed; every; faults }
      else None
    in
    let config =
      {
        d with
        Dp_server.Soak.workers;
        chaos = chaos ~seed;
        cache_dir;
        crash_dir;
        shards;
        journal_dir = journal;
        hedge;
        clients;
        requests_per_client = requests;
        seed;
        deadline_ms;
        crypto_mix = crypto;
        shard_chaos =
          schedule shard_chaos shard_chaos_every Dp_server.Chaos.shard_faults;
        router_chaos =
          schedule router_chaos router_chaos_every Dp_server.Chaos.router_faults;
        log =
          (if quiet then ignore
           else fun msg -> Fmt.epr "dpsyn soak: %s@." msg);
      }
    in
    let report =
      match Dp_server.Soak.run config with
      | report -> report
      | exception Invalid_argument msg ->
        Fmt.epr "error: %s@." msg;
        exit 1
      | exception Dp_diag.Diag.E d -> fail_diag d
    in
    Fmt.pr "%a@." Dp_server.Soak.pp_report report;
    (match json_out with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc
            (Dp_server.Json.to_string (Dp_server.Soak.report_json report));
          output_char oc '\n'));
    if not (Dp_server.Soak.passed report) then begin
      Fmt.epr
        "soak FAILED: %d protocol violations, %d wrong answers@."
        report.violations report.wrong_answers;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Hammer a (optionally chaos-injected) server or sharded topology \
          from concurrent clients; fails on any protocol violation or wrong \
          answer")
    Term.(
      const action $ socket_arg $ clients_arg $ requests_arg $ seed_arg
      $ workers_arg $ chaos_term $ crypto_arg $ cache_dir_arg $ crash_dir_arg
      $ deadline_arg $ json_out_arg $ quiet_arg $ shards_arg
      $ shard_chaos_arg $ shard_chaos_every_arg $ journal_arg
      $ router_chaos_arg $ router_chaos_every_arg $ hedge_arg)

let fsck_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"The store directory to verify.")
  in
  let prune_arg =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            "Remove everything found wrong (corrupt or misfiled entries, \
             orphaned temp files, stale locks).  Entry removals take the \
             per-digest advisory lock, so pruning is safe against a live \
             fleet.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the dpsyn-fsck/1 report object to FILE.")
  in
  let action dir prune json_out =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      Fmt.epr "error: %s: not a directory@." dir;
      exit 1
    end;
    let r = Dp_cache.Store.fsck ~prune ~dir () in
    Fmt.pr
      "fsck %s: %d entries scanned, %d valid, %d corrupt, %d misfiled, %d \
       orphaned tmp, %d stale locks%s@."
      dir r.scanned r.valid r.fsck_corrupt r.misfiled r.orphaned_tmp
      r.stale_locks
      (if prune then Fmt.str ", %d pruned" r.pruned else "");
    (match json_out with
    | None -> ()
    | Some path ->
      let open Dp_server.Json in
      let j =
        Obj
          [
            ("schema", Str "dpsyn-fsck/1");
            ("dir", Str dir);
            ("scanned", Int r.scanned);
            ("valid", Int r.valid);
            ("corrupt", Int r.fsck_corrupt);
            ("misfiled", Int r.misfiled);
            ("orphaned_tmp", Int r.orphaned_tmp);
            ("stale_locks", Int r.stale_locks);
            ("pruned", Int r.pruned);
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (to_string j);
          output_char oc '\n'));
    let problems =
      r.fsck_corrupt + r.misfiled + r.orphaned_tmp + r.stale_locks
    in
    if problems > 0 && r.pruned < problems then exit 1
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify a content-addressed store directory offline (checksums, \
          filename-vs-fingerprint, lint, crashed-writer leftovers); exits \
          1 if problems remain")
    Term.(const action $ dir_arg $ prune_arg $ json_arg)

let () =
  let doc = "fine-grained arithmetic datapath synthesis (DAC 2000 reproduction)" in
  let info = Cmd.info "dpsyn" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            synth_cmd; synth_multi_cmd; compare_cmd; lint_cmd; fuzz_cmd;
            designs_cmd; design_cmd; serve_cmd; client_cmd; batch_cmd;
            soak_cmd; fsck_cmd;
          ]))
