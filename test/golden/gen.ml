(* The output lock: one line per synthesis case, compared with
   golden.expected by `dune runtest`.  A netlist or QoR figure that moves
   fails the test with a diff of exactly the lines that moved;
   `dune promote` regenerates golden.expected.

   A line holds the case tag, design, strategy and adder, then:
   - design=  MD5 of the Verilog of the design path ([Synth.run]), which
              `dpsyn design` and the fuzz oracle run;
   - served=  MD5 of the Verilog of the served path ([Serve.run] with no
              store), which `dpsyn synth --json`, `dpsyn serve` and
              perfbench run.  It synthesizes the canonicalized
              expression, so it can differ from design= (Conventional);
   - the served result's cells, depth, delay, area, tree and total
     switching, and the final adder's latest input arrival.
   Floats print as [Dp_server.Json] prints them.  No cache digest
   appears, so a key-version bump moves no line.  Strategies and adders
   are enumerated from [Strategy.all] and [Adder.all], so a new one fails
   the test until it is promoted. *)

open Dp_flow
module Json = Dp_server.Json

let md5 s = Digest.to_hex (Digest.string s)
let num f = Json.to_string (Json.Float f)

let qor (s : Dp_netlist.Stats.t) ~tree_switching ~total_switching =
  Printf.sprintf
    "cells=%d depth=%d delay=%s area=%s tree_switching=%s total_switching=%s"
    s.cells s.depth (num s.delay) (num s.area) (num tree_switching)
    (num total_switching)

let case ~tag ?(tech = Dp_tech.Tech.lcb_like)
    ?(lower_config = Dp_bitmatrix.Lower.default_config) adder strategy
    (d : Dp_designs.Design.t) =
  let design =
    match
      Synth.run_res ~tech ~adder ~lower_config ~width:d.width strategy d.env
        d.expr
    with
    | Ok r -> md5 (Dp_netlist.Verilog.emit r.netlist)
    | Error e -> "error:" ^ e.code
  in
  let served =
    match
      Dp_cache.Serve.run
        (Dp_cache.Serve.request ~width:(Some d.width) ~strategy ~adder
           ~lower_config ~tech d.env d.expr)
    with
    | Error e -> "error:" ^ e.code
    | Ok { verilog; result = r; _ } ->
      Printf.sprintf "%s %s reduced_max_arrival=%s" (md5 verilog)
        (qor r.stats ~tree_switching:r.tree_switching
           ~total_switching:r.total_switching)
        (Option.fold ~none:"null" ~some:num r.reduced_max_arrival)
  in
  Printf.printf "%s %s %s %s design=%s served=%s\n" tag d.name
    (Strategy.name strategy) (Dp_adders.Adder.name adder) design served

(* [Synth.run_multi] has no served counterpart and no single final adder,
   so these lines carry only design= and the multi-output QoR. *)
let multi name env ports strategy =
  let body =
    match Synth.run_multi_res strategy env ports with
    | Ok r ->
      Printf.sprintf "design=%s %s"
        (md5 (Dp_netlist.Verilog.emit r.netlist))
        (qor r.stats ~tree_switching:r.tree_switching
           ~total_switching:r.total_switching)
    | Error e -> "design=error:" ^ e.code
  in
  Printf.printf "multi %s %s %s %s\n" name (Strategy.name strategy)
    (Dp_adders.Adder.name Cla) body

(* The two blocks of examples/multi_output.ml. *)
let multi_examples =
  let port name text width =
    { Synth.name; expr = Dp_expr.Parse.expr text; width }
  in
  [
    ( "Complex-ReIm",
      Dp_expr.Env.of_widths [ ("a", 16); ("b", 16); ("c", 16); ("d", 16) ],
      [ port "re" "a*c - b*d" 33; port "im" "a*d + b*c" 33 ] );
    ( "Square-Cube",
      Dp_expr.Env.of_widths [ ("x", 8) ],
      [ port "sq" "x^2" 16; port "cube" "x^3" 24 ] );
  ]

let () =
  let sweep ~tag ?tech ?lower_config designs strategies adders =
    List.iter
      (fun d ->
        List.iter
          (fun s -> List.iter (fun a -> case ~tag ?tech ?lower_config a s d) adders)
          strategies)
      designs
  in
  let open Dp_designs in
  let default = Dp_bitmatrix.Lower.default_config in
  sweep ~tag:"catalog" Catalog.all Strategy.all Dp_adders.Adder.all;
  sweep ~tag:"table2" Catalog.table2 Strategy.all Dp_adders.Adder.all;
  sweep ~tag:"crypto" Crypto.light Strategy.all Dp_adders.Adder.all;
  (* The 225-256-high matrices of perfbench's crypto_tall, under its five
     strategies. *)
  sweep ~tag:"tall"
    [ Crypto.mul_mod_diag; Crypto.mac_chain ]
    [ Fa_aot; Fa_alp; Sc_t_gpc; Sc_lp_gpc; Dadda_gpc ]
    [ Cla ];
  sweep ~tag:"binary"
    ~lower_config:{ default with recoding = Binary }
    Catalog.table1 Strategy.all [ Cla ];
  sweep ~tag:"booth"
    ~lower_config:{ default with multiplier_style = Booth }
    Catalog.table1 Strategy.all [ Cla ];
  sweep ~tag:"fusion"
    ~tech:{ Dp_tech.Tech.lcb_like with counter_fusion = 0.8 }
    Catalog.table1 [ Sc_t_gpc; Sc_lp_gpc; Dadda_gpc ] [ Cla ];
  List.iter
    (fun (name, env, ports) -> List.iter (multi name env ports) Strategy.all)
    multi_examples
