(* Identity of [Lower.lower] against the map-based lowering kept in
   [Lower_reference]: for every input, both must build the same matrix
   (column by column, net by net), the same netlist (every net and cell,
   byte-identical Verilog) and poll the governor the same number of
   times.  Covers the catalog and crypto designs under CSD, binary and
   Booth lowering, squarer and degree-3+ supports, several lowerings
   into one netlist, and fuzz cases. *)

open Dp_netlist
open Helpers
module Lower = Dp_bitmatrix.Lower
module Matrix = Dp_bitmatrix.Matrix
module Gov = Dp_gov.Gov

let configs =
  [
    ("csd", Lower.default_config);
    ("binary", { Lower.default_config with recoding = Lower.Binary });
    ("booth", { Lower.default_config with multiplier_style = Lower.Booth });
  ]

(* Lower every (env, expr, width) of [ports] into one fresh netlist, under
   a governor that polls on every checkpoint.  Each port's matrix nets
   become one output bus, so the Verilog shows them too. *)
let lower_all
    (lower :
      ?config:Lower.config ->
      Netlist.t ->
      Dp_expr.Env.t ->
      Dp_expr.Ast.t ->
      width:int ->
      Matrix.t) ~config ports =
  let gov = Gov.create ~poll_every:1 () in
  Gov.with_ambient gov @@ fun () ->
  let netlist = mk_netlist () in
  let matrices =
    List.mapi
      (fun i (env, expr, width) ->
        let m = lower ~config netlist env expr ~width in
        let nets = List.concat (List.init (Matrix.width m) (Matrix.column m)) in
        Netlist.set_output netlist (Printf.sprintf "pp%d" i) (Array.of_list nets);
        m)
      ports
  in
  (netlist, matrices, Gov.polls gov)

let same_lowering label ~config ports =
  let got_nl, got_ms, got_polls = lower_all Lower.lower ~config ports in
  let ref_nl, ref_ms, ref_polls =
    lower_all Lower_reference.lower ~config ports
  in
  List.iteri
    (fun i (got, expected) ->
      let w = Int.max (Matrix.width got) (Matrix.width expected) in
      for j = 0 to w - 1 do
        if Matrix.column got j <> Matrix.column expected j then
          Alcotest.failf "%s: port %d column %d differs" label i j
      done)
    (List.combine got_ms ref_ms);
  checki (label ^ " cells") (Netlist.cell_count ref_nl) (Netlist.cell_count got_nl);
  checki (label ^ " nets") (Netlist.net_count ref_nl) (Netlist.net_count got_nl);
  Test_perf.check_identical label got_nl ref_nl;
  if not (String.equal (Verilog.emit got_nl) (Verilog.emit ref_nl)) then
    Alcotest.failf "%s: Verilog differs" label;
  checki (label ^ " governor polls") ref_polls got_polls

let under_every_config label ports =
  List.iter
    (fun (name, config) -> same_lowering (label ^ "/" ^ name) ~config ports)
    configs

let designs () =
  List.iter
    (fun (d : Dp_designs.Design.t) ->
      under_every_config d.name [ (d.env, d.expr, d.width) ])
    (Dp_designs.Catalog.all @ Dp_designs.Catalog.table2 @ Dp_designs.Crypto.all)

let env_of specs =
  List.fold_left
    (fun env (name, width, signed) -> Dp_expr.Env.add_uniform ~signed name ~width env)
    Dp_expr.Env.empty specs

(* Supports folded across degrees: x_i*x_i = x_i, x*x*y tuples landing on
   x*y's two-net supports, and supports of three and four nets. *)
let squarer_and_wide_supports () =
  let cases =
    [
      ("(x+y+1)^3", [ ("x", 5, false); ("y", 4, false) ], 24);
      ("x*x*y", [ ("x", 6, false); ("y", 5, false) ], 20);
      ("x*x*y + 3*x*y - x*x", [ ("x", 6, false); ("y", 5, false) ], 20);
      ( "a*b*c*d",
        [ ("a", 4, false); ("b", 4, false); ("c", 3, false); ("d", 3, false) ],
        14 );
      ("x*x*x - 5*x*y*z + 7", [ ("x", 5, true); ("y", 4, true); ("z", 3, false) ], 18);
      ("x*y - y*x*x + (x - y)^2", [ ("x", 8, true); ("y", 6, true) ], 22);
      ("x*x", [ ("x", 12, false) ], 24);
      ("x*x", [ ("x", 12, true) ], 24);
    ]
  in
  List.iter
    (fun (src, specs, width) ->
      under_every_config src [ (env_of specs, Dp_expr.Parse.expr src, width) ])
    cases

(* Two lowerings into one netlist, as [Synth.run_multi] does: the second
   reuses the first one's input buses and AND gates. *)
let shared_netlist () =
  let env = env_of [ ("x", 8, false); ("y", 8, false); ("z", 6, true) ] in
  under_every_config "multi"
    [
      (env, Dp_expr.Parse.expr "x*y + z", 18);
      (env, Dp_expr.Parse.expr "y*x - x*x*z + 3", 24);
      (env, Dp_expr.Parse.expr "x*y*z", 22);
    ]

let fuzz_cases ~config ~seed n =
  let rng = Random.State.make [| seed |] in
  List.init n (fun i ->
      let case_ = Dp_fuzz.Gen.case ~config rng i in
      let env = Dp_fuzz.Case.env case_ in
      let ports = case_.Dp_fuzz.Case.ports in
      (i, List.map (fun (_, expr, width) -> (env, expr, width)) ports))

let fuzz ~config ~seed n () =
  List.iter
    (fun (i, ports) -> under_every_config (Printf.sprintf "fuzz %d" i) ports)
    (fuzz_cases ~config ~seed n)

let suite =
  [
    case "catalog, table2 and crypto designs" designs;
    case "squarer and degree-3+ supports" squarer_and_wide_supports;
    case "several lowerings into one netlist" shared_netlist;
    case "fuzz: default envelope (300 cases)"
      (fuzz ~config:Dp_fuzz.Gen.default_config ~seed:0x10e4 300);
    case "fuzz: crypto envelope (60 cases)"
      (fuzz ~config:Dp_fuzz.Gen.crypto_config ~seed:0xc4e7 60);
  ]
