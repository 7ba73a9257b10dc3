(* Byte-identity of [Verilog.emit] against the Printf emitter kept in
   [Verilog_reference]: catalog and light crypto designs under every
   strategy, every adder, hand-built constant corner cases and fuzz
   cases. *)

open Dp_netlist
open Helpers

let same ?module_name label netlist =
  let expected = Verilog_reference.emit ?module_name netlist in
  let got = Verilog.emit ?module_name netlist in
  if not (String.equal expected got) then
    Alcotest.failf "%s: emitted Verilog differs from the reference (%d vs %d bytes)"
      label (String.length got) (String.length expected)

let designs_under_every_strategy () =
  let designs =
    Dp_designs.Catalog.all @ Dp_designs.Catalog.table2 @ Dp_designs.Crypto.light
  in
  List.iter
    (fun (d : Dp_designs.Design.t) ->
      List.iter
        (fun strategy ->
          let r = Dp_flow.Synth.run strategy d.env d.expr ~width:d.width in
          same
            (Printf.sprintf "%s/%s" d.name (Dp_flow.Strategy.name strategy))
            r.netlist)
        Dp_flow.Strategy.all)
    designs

let every_adder_on_idct () =
  let d = Dp_designs.Catalog.idct in
  List.iter
    (fun adder ->
      let r =
        Dp_flow.Synth.run ~adder Dp_flow.Strategy.Fa_aot d.env d.expr ~width:d.width
      in
      same (Dp_adders.Adder.name adder) r.netlist)
    Dp_adders.Adder.all

let multi_output_module_name () =
  let env = Dp_expr.Env.of_widths [ ("a", 4); ("b", 4); ("c", 4) ] in
  let port name src width =
    { Dp_flow.Synth.name; expr = Dp_expr.Parse.expr src; width }
  in
  let r =
    Dp_flow.Synth.run_multi Dp_flow.Strategy.Fa_aot env
      [ port "t" "a + b" 5; port "u" "a*c - b" 9; port "v" "3*b*c + 7" 11 ]
  in
  same ~module_name:"cmul_top" "run_multi" r.netlist;
  checkb "custom module name" true
    (contains ~needle:"module cmul_top (a, b, c, t, u, v);"
       (Verilog.emit ~module_name:"cmul_top" r.netlist))

let constants_feeding_cells () =
  let n = mk_netlist () in
  let a = Netlist.add_input n "a" ~width:3 in
  (* [buf] never folds, so both constants reach a cell input *)
  let z = Netlist.buf n (Netlist.const n false) in
  let o = Netlist.buf n (Netlist.const n true) in
  let s, co = Netlist.fa n a.(0) a.(1) a.(2) in
  Netlist.set_output n "o" [| z; o; s; co |];
  (* and an FA pin rewired onto a constant *)
  let fa_cell = Netlist.cell_count n - 1 in
  Netlist.Mutate.set_cell_input n ~cell:fa_cell ~pin:1 (Netlist.const n true);
  same "constants into cells" n;
  let v = Verilog.emit n in
  checkb "const0 declared" true (contains ~needle:"assign const0 = 1'b0;" v);
  checkb "const1 declared" true (contains ~needle:"assign const1 = 1'b1;" v)

let constants_wired_to_outputs () =
  let n = mk_netlist () in
  let a = Netlist.add_input n "a" ~width:2 in
  Netlist.set_output n "o"
    [| a.(0); Netlist.const n true; Netlist.const n false; Netlist.and_n n [ a.(0); a.(1) ] |];
  same "constants on outputs" n;
  checkb "output bit tied to const1" true
    (contains ~needle:"assign o[1] = const1;" (Verilog.emit n))

let unread_constant_gets_no_wire () =
  let n = mk_netlist () in
  let a = Netlist.add_input n "a" ~width:2 in
  ignore (Netlist.const n false : Netlist.net);
  ignore (Netlist.const n true : Netlist.net);
  Netlist.set_output n "o" [| Netlist.xor2 n a.(0) a.(1) |];
  same "unread constants" n;
  checkb "no const wire" false (contains ~needle:"const" (Verilog.emit n))

let fuzz_cases () =
  let rng = Random.State.make [| 0x7e51 |] in
  let strategies = Array.of_list Dp_flow.Strategy.all in
  let adders = Array.of_list Dp_adders.Adder.all in
  let synthesized = ref 0 in
  for i = 0 to 299 do
    let case = Dp_fuzz.Gen.case rng i in
    let strategy = strategies.(i mod Array.length strategies) in
    let adder = adders.(i / Array.length strategies mod Array.length adders) in
    let ports =
      List.map
        (fun (name, expr, width) -> { Dp_flow.Synth.name; expr; width })
        case.Dp_fuzz.Case.ports
    in
    match
      Dp_flow.Synth.run_multi_res ~adder strategy (Dp_fuzz.Case.env case) ports
    with
    | Ok r ->
      incr synthesized;
      same (Dp_fuzz.Case.synth_command ~strategy ~adder case) r.netlist
    | Error _ -> ()
  done;
  checkb "most fuzz cases synthesize" true (!synthesized >= 250)

let suite =
  [
    case "catalog, table2 and light crypto under every strategy"
      designs_under_every_strategy;
    case "every adder on IDCT" every_adder_on_idct;
    case "multi-output netlist with a custom module name" multi_output_module_name;
    case "constants feeding cell inputs" constants_feeding_cells;
    case "constants wired straight to outputs" constants_wired_to_outputs;
    case "an unread constant declares no wire" unread_constant_gets_no_wire;
    case "300 fuzz cases" fuzz_cases;
  ]
