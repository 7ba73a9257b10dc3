(* Second property batch: structural invariants, fuzzing, and
   cross-subsystem consistency on randomly generated expressions. *)

open Dp_expr
open Helpers

let vars_pool = [ ("a", 3); ("b", 2); ("c", 3) ]
let env = Env.of_widths vars_pool

let gen_expr =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map (fun (v, _) -> Ast.Var v) (oneofl vars_pool);
            map Ast.const (int_range (-9) 9);
          ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map (fun (v, _) -> Ast.Var v) (oneofl vars_pool);
            map2 (fun a b -> Ast.Add (a, b)) sub sub;
            map2 (fun a b -> Ast.Sub (a, b)) sub sub;
            map2 (fun a b -> Ast.Mul (a, b)) sub sub;
            map (fun a -> Ast.Neg a) sub;
          ])

let tractable e =
  match bounded_sop ~max_terms:256 e with
  | Some sop -> Sop.term_count sop <= 30 && Sop.max_degree sop <= 5
  | None -> false
  | exception _ -> false

let mk_prop ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:Ast.to_string gen prop)

let synth e =
  QCheck2.assume (tractable e);
  let width = min (Range.natural_width env e) 16 in
  Dp_flow.Synth.run Dp_flow.Strategy.Fa_aot env e ~width

(* Parser fuzz: arbitrary printable strings either parse or raise
   Parse.Error — never anything else, never a crash. *)
let prop_parser_total =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parser is total (Error or value)" ~count:500
       QCheck2.Gen.(string_size ~gen:printable (int_range 0 40))
       (fun s ->
         match Parse.expr s with
         | (_ : Ast.t) -> true
         | exception Parse.Error _ -> true))

let prop_program_parser_total =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"program parser is total" ~count:500
       QCheck2.Gen.(string_size ~gen:printable (int_range 0 40))
       (fun s ->
         match Parse.program s with
         | (_ : (string * Ast.t) list) -> true
         | exception Parse.Error _ -> true))

(* Verilog output is lexically sane for any synthesized expression. *)
let prop_verilog_sane =
  mk_prop "verilog: balanced modules, unique wires" gen_expr (fun e ->
      let r = synth e in
      let v = Dp_netlist.Verilog.emit r.netlist in
      let count_substring needle =
        let nl = String.length needle and hl = String.length v in
        let rec go i acc =
          if i + nl > hl then acc
          else if String.sub v i nl = needle then go (i + 1) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      let modules = count_substring "\nmodule " + 1 (* first at offset 0 *) in
      let endmodules = count_substring "endmodule" in
      let wires =
        String.split_on_char '\n' v
        |> List.filter_map (fun l ->
               let l = String.trim l in
               if String.length l > 5 && String.sub l 0 5 = "wire " then Some l
               else None)
      in
      let unique = List.sort_uniq String.compare wires in
      modules = endmodules && List.length unique = List.length wires)

(* Event-driven simulation settles to the functional value on random
   expressions and random vectors. *)
let prop_event_sim_settles =
  mk_prop ~count:30 "event sim settles to functional values" gen_expr (fun e ->
      let r = synth e in
      let t = Dp_sim.Event_sim.create r.netlist in
      let rng = Random.State.make [| Hashtbl.hash (Ast.to_string e) |] in
      let draw () =
        let alist =
          List.map (fun (v, w) -> (v, Random.State.int rng (1 lsl w))) vars_pool
        in
        assign_of alist
      in
      Dp_sim.Event_sim.initialize t ~assign:(draw ());
      let ok = ref true in
      for _ = 1 to 10 do
        let assign = draw () in
        Dp_sim.Event_sim.apply_vector t ~assign;
        let reference = Simulator_reference.run r.netlist ~assign in
        Array.iteri
          (fun net expected ->
            if t.values.(net) <> if expected then -1L else 0L then ok := false)
          reference
      done;
      !ok)

(* Pipeline plans are internally consistent for random expressions. *)
let prop_pipeline_consistent =
  mk_prop ~count:30 "pipeline plans consistent" gen_expr (fun e ->
      let r = synth e in
      let cycle_time =
        Float.max 1.0 (Dp_pipeline.Pipeline.min_cycle_time r.netlist)
      in
      let p = Dp_pipeline.Pipeline.plan r.netlist ~cycle_time in
      let ok = ref (p.latency >= 1 && p.register_bits >= 0) in
      Array.iter
        (fun local -> if local > cycle_time +. 1e-9 then ok := false)
        p.local_arrival;
      Array.iter
        (fun d -> if d > cycle_time +. 1e-9 then ok := false)
        p.stage_delay;
      (* monotone along edges *)
      iter_edges r.netlist (fun ~input ~output ->
          if p.stage_of_net.(input) > p.stage_of_net.(output) then ok := false);
      !ok)

(* Fixed-structure reducers have logarithmic FA-tree depth. *)
let prop_wallace_depth_logarithmic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"wallace depth is O(log h)" ~count:30
       QCheck2.Gen.(int_range 3 40)
       (fun height ->
         let n = mk_netlist ~tech:Dp_tech.Tech.unit_delay () in
         let bits = Dp_netlist.Netlist.add_input n "x" ~width:height in
         let m = Dp_bitmatrix.Matrix.create () in
         Array.iter (fun b -> Dp_bitmatrix.Matrix.add m ~weight:0 b) bits;
         Dp_core.Wallace.allocate n m;
         (* stages(h) for 3:2 compression: ceil(log_{3/2}(h/2)) + slack *)
         let bound =
           2 + int_of_float (Float.ceil (log (float_of_int height /. 2.0) /. log 1.5))
         in
         Dp_netlist.Topo.levels n
         |> Array.for_all (fun level -> level <= bound)))

(* The tech file loader round-trips random perturbations. *)
let prop_tech_file_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"tech file roundtrip" ~count:100
       QCheck2.Gen.(
         triple (float_bound_inclusive 9.0) (float_bound_inclusive 9.0)
           (float_bound_inclusive 9.0))
       (fun (ds, dc, area) ->
         let t =
           {
             Dp_tech.Tech.lcb_like with
             fa_sum_delay = ds;
             fa_carry_delay = dc;
             fa_area = area;
           }
         in
         let t' = Dp_tech.Tech_file.of_string (Dp_tech.Tech_file.to_string t) in
         Float.abs (t'.fa_sum_delay -. ds) < 1e-6
         && Float.abs (t'.fa_carry_delay -. dc) < 1e-6
         && Float.abs (t'.fa_area -. area) < 1e-6))

(* Multi-output synthesis equals per-output synthesis functionally. *)
let prop_multi_matches_single =
  mk_prop ~count:25 "multi-output = single-output per port" gen_expr (fun e ->
      QCheck2.assume (tractable e);
      let width = min (Range.natural_width env e) 12 in
      let ports =
        [
          { Dp_flow.Synth.name = "p0"; expr = e; width };
          { Dp_flow.Synth.name = "p1"; expr = Ast.Add (e, Ast.Const 1); width };
        ]
      in
      let r = Dp_flow.Synth.run_multi Dp_flow.Strategy.Fa_aot env ports in
      Dp_flow.Synth.verify_multi ~trials:25 r = Ok ())

let suite =
  [
    prop_parser_total;
    prop_program_parser_total;
    prop_verilog_sane;
    prop_event_sim_settles;
    prop_pipeline_consistent;
    prop_wallace_depth_logarithmic;
    prop_tech_file_roundtrip;
    prop_multi_matches_single;
  ]
