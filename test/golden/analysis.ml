(* The analysis lock: one line per netlist, compared with
   analysis.expected by `dune runtest`.  Where golden.expected locks what
   synthesis builds, this file locks what the analysis passes compute
   from a built netlist, so a pass that is rewritten (how it reads cells,
   how it evaluates them) must reproduce its old output bit for bit.

   A line holds the case tag, design (or fuzz case), strategy, then the
   MD5 of each pass's output, floats taken by their bits:
   - sta=       [Sta.arrivals];
   - path=      [Sta.critical_path];
   - prob=      [Prob.probabilities];
   - pipeline=  [Pipeline.plan] at 1.5 x [Pipeline.min_cycle_time];
   - toggle=    [Monte_carlo.toggle_rates] over 100 vectors;
   - event=     [Event_sim.transition_rates] over [event_vectors] vectors;
   - glitch=    [Event_sim.glitch_factor] over [event_vectors] vectors;
   - dot=       [Dot.emit];
   - tb=        [Testbench.emit], over its default 64 vectors;
   - cells=     [Stats.pp_cells];
   - inject=    the description each [Inject.all] mutation returns, each
                applied to its own fresh copy of the netlist.
   event=, glitch= and tb= read "-" where an input is 30 bits or wider.
   A pass that raises prints "!" and the exception. *)

open Dp_flow
open Dp_netlist

let event_vectors = 4

let md5 s = Digest.to_hex (Digest.string s)

let floats a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun f -> Buffer.add_int64_le b (Int64.bits_of_float f)) a;
  Buffer.contents b

let ints a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun i -> Buffer.add_int64_le b (Int64.of_int i)) a;
  Buffer.contents b

let guard f = try md5 (f ()) with e -> "!" ^ Printexc.to_string e

let pipeline netlist =
  let p =
    Dp_pipeline.Pipeline.plan netlist
      ~cycle_time:(1.5 *. Dp_pipeline.Pipeline.min_cycle_time netlist)
  in
  String.concat "|"
    [
      floats [| p.cycle_time |];
      string_of_int p.latency;
      ints p.stage_of_net;
      floats p.local_arrival;
      floats p.stage_delay;
      string_of_int p.register_bits;
    ]

let copy (netlist : Netlist.t) : Netlist.t =
  Marshal.from_string (Marshal.to_string netlist []) 0

let inject netlist =
  String.concat "|"
    (List.map
       (fun m ->
         Option.value ~default:"none" (Dp_verify.Inject.apply (copy netlist) m))
       Dp_verify.Inject.all)

let line ~tag ~name strategy netlist =
  let narrow =
    List.for_all (fun (_, nets) -> Array.length nets < 30) (Netlist.inputs netlist)
  in
  let narrow_only f = if narrow then guard f else "-" in
  let fields =
    [
      ("sta", guard (fun () -> floats (Dp_timing.Sta.arrivals netlist)));
      ( "path",
        guard (fun () ->
            ints (Array.of_list (Dp_timing.Sta.critical_path netlist))) );
      ("prob", guard (fun () -> floats (Dp_power.Prob.probabilities netlist)));
      ("pipeline", guard (fun () -> pipeline netlist));
      ( "toggle",
        guard (fun () ->
            floats
              (Dp_sim.Monte_carlo.toggle_rates ~vectors:100 netlist).toggle_rate)
      );
      ( "event",
        narrow_only (fun () ->
            floats
              (Dp_sim.Event_sim.transition_rates ~vectors:event_vectors netlist)
                .transition_rate) );
      ( "glitch",
        narrow_only (fun () ->
            floats
              [|
                Dp_sim.Event_sim.glitch_factor ~vectors:event_vectors ~seed:7
                  netlist;
              |]) );
      ("dot", guard (fun () -> Dot.emit netlist));
      ( "tb",
        narrow_only (fun () -> Dp_sim.Testbench.emit netlist) );
      ("cells", guard (fun () -> Fmt.str "%a" Stats.pp_cells netlist));
      ("inject", guard (fun () -> inject netlist));
    ]
  in
  Printf.printf "%s %s %s %s\n" tag name (Strategy.name strategy)
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) fields))

let strategies = Strategy.[ Fa_aot; Fa_alp; Sc_t_gpc; Conventional ]

let design ~tag (d : Dp_designs.Design.t) strategy =
  match Synth.run_res ~width:d.width strategy d.env d.expr with
  | Ok r -> line ~tag ~name:d.name strategy r.netlist
  | Error e ->
    Printf.printf "%s %s %s error:%s\n" tag d.name (Strategy.name strategy)
      e.code

(* Fuzz case [i] of a seeded stream, synthesized (all its ports into one
   netlist) under the [i]-th strategy in turn. *)
let fuzz ~tag ~config ~seed count =
  let rng = Random.State.make [| seed |] in
  for i = 0 to count - 1 do
    let case = Dp_fuzz.Gen.case ~config rng i in
    let strategy = List.nth strategies (i mod List.length strategies) in
    let name = Printf.sprintf "case%d" i in
    let ports =
      List.map
        (fun (name, expr, width) -> { Synth.name; expr; width })
        case.Dp_fuzz.Case.ports
    in
    match Synth.run_multi_res strategy (Dp_fuzz.Case.env case) ports with
    | Ok r -> line ~tag ~name strategy r.netlist
    | Error e ->
      Printf.printf "%s %s %s error:%s\n" tag name (Strategy.name strategy)
        e.code
  done

let () =
  let open Dp_designs in
  List.iter
    (fun (tag, designs) ->
      List.iter (fun d -> List.iter (design ~tag d) strategies) designs)
    [ ("table1", Catalog.table1); ("table2", Catalog.table2) ];
  fuzz ~tag:"fuzz" ~config:Dp_fuzz.Gen.default_config ~seed:0xA11 8;
  fuzz ~tag:"fuzz-crypto" ~config:Dp_fuzz.Gen.crypto_config ~seed:0xA12 8
