(* Byte-identity of [Verilog.emit] against the Printf emitter kept in
   [Verilog_reference]: catalog and light crypto designs under every
   strategy, the two tall crypto designs, every adder, hand-built
   constant corner cases, a text that outgrows the emitter's size
   estimate, redirected drivers and fuzz cases. *)

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

(* The netlists of about 1 MB that perfbench's crypto_tall emits. *)
let tall_crypto_designs () =
  List.iter
    (fun (d : Dp_designs.Design.t) ->
      List.iter
        (fun strategy ->
          let r = Dp_flow.Synth.run strategy d.env d.expr ~width:d.width in
          same
            (Printf.sprintf "%s/%s" d.name (Dp_flow.Strategy.name strategy))
            r.netlist)
        Dp_flow.Strategy.[ Fa_aot; Fa_alp; Sc_t_gpc; Sc_lp_gpc; Dadda_gpc ])
    [ Dp_designs.Crypto.mul_mod_diag; Dp_designs.Crypto.mac_chain ]

(* The emitter sizes its buffer counting every pin as a cell reference of
   a few bytes.  A 300-character input name read by every pin, with bit
   indices from 1000 up, makes the text many times that size, so the
   buffer has to grow, and input references in mid-line must keep the
   rest of each line covered. *)
let outgrows_the_estimate () =
  let n = mk_netlist () in
  let name = String.init 300 (fun i -> Char.chr (97 + (i mod 26))) in
  let wide = Netlist.add_input n name ~width:1200 in
  let other = Netlist.add_input n "b" ~width:4 in
  let cells = 150 in
  let sums =
    Array.init cells (fun i ->
        let x = wide.(1000 + i) and y = wide.(1199 - i) in
        let g = Netlist.and_n n [ x; y ] in
        let s, _ = Netlist.fa n x y other.(i mod 4) in
        Netlist.xor2 n g s)
  in
  Netlist.set_output n "o" (Array.append sums [| wide.(1199); wide.(1000) |]);
  same "long input name, bits from 1000" n;
  let v = Verilog.emit n in
  checkb "the text is dominated by input references" true
    (String.length v > 300 * 4 * cells);
  checkb "bit 1199 referenced" true
    (contains ~needle:(name ^ "[1199]") v)

(* [Mutate.set_driver] overrides, as the fault injector makes them: a
   cell-driven net redirected to an input bit, to a constant, and to
   another cell's port, each read by a cell and by an output bit. *)
let redirected_drivers () =
  let redirect label target =
    let n = mk_netlist () in
    let a = Netlist.add_input n "a" ~width:4 in
    let s0, c0 = Netlist.fa n a.(0) a.(1) a.(2) in
    let g = Netlist.and_n n [ a.(2); a.(3) ] in
    let s1, c1 = Netlist.fa n s0 c0 g in
    Netlist.set_output n "o" [| s0; c0; g; s1; c1; Netlist.xor2 n s1 c1 |];
    let target =
      match target with
      | `Input -> Netlist.From_input { var = "a"; bit = 3 }
      | `Const b -> Netlist.From_const b
      | `Port -> Netlist.From_cell { cell = Netlist.driving_cell n c0; port = 1 }
    in
    (* both are read by the second FA and by an output bit *)
    Netlist.Mutate.set_driver n s0 target;
    Netlist.Mutate.set_driver n g target;
    same label n;
    Verilog.emit n
  in
  ignore (redirect "redirected to an input" `Input : string);
  checkb "const1 declared for a redirected net" true
    (contains ~needle:"assign const1 = 1'b1;"
       (redirect "redirected to const1" (`Const true)));
  checkb "const0 declared for a redirected net" true
    (contains ~needle:"assign const0 = 1'b0;"
       (redirect "redirected to const0" (`Const false)));
  ignore (redirect "redirected to another cell's port" `Port : string)

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
    case "MulModDiag256 and MacChain under the crypto_tall strategies"
      tall_crypto_designs;
    case "a text that outgrows the size estimate" outgrows_the_estimate;
    case "drivers redirected to an input, a constant and a cell port"
      redirected_drivers;
  ]
