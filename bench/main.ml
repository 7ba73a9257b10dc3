(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5), plus the ablations listed in DESIGN.md and the
   GPC counter comparison.  Every experiment that calls [verified] fails
   the run on a netlist that is not equivalent to its expression.  Tool
   speed is measured by perfbench/, not here.

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe table1     # one experiment
   Experiments: table1 table2 extended fig1 fig2 fig3 fig4
                ablation-csd ablation-adder ablation-tie ablation-finish
                ablation-booth ablation-glitch ablation-pipeline counters *)

open Dp_flow

let section title = Fmt.pr "@.=== %s ===@.@." title

let run ?adder ?lower_config strategy (d : Dp_designs.Design.t) =
  Synth.run ?adder ?lower_config strategy d.env d.expr ~width:d.width

let verified ?adder ?lower_config strategy (d : Dp_designs.Design.t) =
  let r = run ?adder ?lower_config strategy d in
  (match Synth.verify ~trials:40 r d.expr with
  | Ok () -> ()
  | Error m ->
    Fmt.failwith "%s under %s is NOT equivalent: %a" d.name
      (Strategy.name strategy) Dp_sim.Equiv.pp_mismatch m);
  r

(* Reduction-tree depth in cell levels: the longest chain of FA/HA/
   counter cells through the netlist.  A counter collapses several FA
   levels into one, which is the stage win the GPC strategies buy; plain
   gates (partial products, CPA logic) pass levels through without adding
   any. *)
let reduction_levels netlist =
  let open Dp_netlist in
  let level = Array.make (max 1 (Netlist.net_count netlist)) 0 in
  let worst = ref 0 in
  for id = 0 to Netlist.cell_count netlist - 1 do
    let kind = Netlist.cell_kind netlist id in
    let reduces =
      match kind with
      | Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha -> true
      | k -> Dp_tech.Cell_kind.is_counter k
    in
    let base = ref 0 in
    for k = 0 to Netlist.pin_count netlist id - 1 do
      base := max !base level.(Netlist.pin netlist id k)
    done;
    let l = if reduces then !base + 1 else !base in
    worst := max !worst l;
    for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
      level.(Netlist.output_net netlist id ~port) <- l
    done
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Table 1: timing/area, Conventional vs CSA_OPT vs FA_AOT *)

let table1 () =
  section
    "Table 1 — designs optimized for timing (delay ns / area units, CLA \
     CPAs everywhere)\npaper: FA_AOT improves delay 37.8% vs Conventional, \
     23.5% vs CSA_OPT on average";
  let acc_conv_t = ref 0.0 and acc_csa_t = ref 0.0 and acc_aot_t = ref 0.0 in
  let acc_conv_a = ref 0.0 and acc_csa_a = ref 0.0 and acc_aot_a = ref 0.0 in
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let conv = verified Strategy.Conventional d in
        let csa = verified Strategy.Csa_opt d in
        let aot = verified Strategy.Fa_aot d in
        acc_conv_t := !acc_conv_t +. conv.stats.delay;
        acc_csa_t := !acc_csa_t +. csa.stats.delay;
        acc_aot_t := !acc_aot_t +. aot.stats.delay;
        acc_conv_a := !acc_conv_a +. conv.stats.area;
        acc_csa_a := !acc_csa_a +. csa.stats.area;
        acc_aot_a := !acc_aot_a +. aot.stats.area;
        [
          d.name;
          Report.ns conv.stats.delay;
          Report.units conv.stats.area;
          Report.ns csa.stats.delay;
          Report.units csa.stats.area;
          Report.ns aot.stats.delay;
          Report.units aot.stats.area;
          Report.pct ~baseline:conv.stats.delay ~ours:aot.stats.delay;
          Report.pct ~baseline:conv.stats.area ~ours:aot.stats.area;
          Report.pct ~baseline:csa.stats.delay ~ours:aot.stats.delay;
          Report.pct ~baseline:csa.stats.area ~ours:aot.stats.area;
        ])
      Dp_designs.Catalog.table1
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [
           "Design"; "Conv t"; "Conv a"; "CSA t"; "CSA a"; "AOT t"; "AOT a";
           "dT/Conv"; "dA/Conv"; "dT/CSA"; "dA/CSA";
         ]
       ~rows);
  let n = float_of_int (List.length rows) in
  Fmt.pr
    "Averages: delay improvement vs Conventional %.1f%% (paper: 37.8%%), vs \
     CSA_OPT %.1f%% (paper: 23.5%%)@."
    (Report.improvement ~baseline:(!acc_conv_t /. n) ~ours:(!acc_aot_t /. n))
    (Report.improvement ~baseline:(!acc_csa_t /. n) ~ours:(!acc_aot_t /. n));
  Fmt.pr "          area improvement vs Conventional %.1f%%, vs CSA_OPT %.1f%%@."
    (Report.improvement ~baseline:(!acc_conv_a /. n) ~ours:(!acc_aot_a /. n))
    (Report.improvement ~baseline:(!acc_csa_a /. n) ~ours:(!acc_aot_a /. n))

(* ------------------------------------------------------------------ *)
(* Table 2: power, FA_random vs FA_ALP *)

let table2 () =
  section
    "Table 2 — designs optimized for power (E_switching of the FA-tree, \
     scaled to mW)\npaper: FA_ALP improves 11.8% on average";
  let acc_rand = ref 0.0 and acc_alp = ref 0.0 in
  let random_seeds = [ 1; 2; 3; 4; 5 ] in
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let rand_avg =
          let total =
            List.fold_left
              (fun acc seed ->
                acc +. (verified (Strategy.Fa_random seed) d).tree_switching)
              0.0 random_seeds
          in
          total /. float_of_int (List.length random_seeds)
        in
        let alp = (verified Strategy.Fa_alp d).tree_switching in
        acc_rand := !acc_rand +. rand_avg;
        acc_alp := !acc_alp +. alp;
        [
          d.name;
          Report.mw (Dp_power.Switching.milliwatts rand_avg);
          Report.mw (Dp_power.Switching.milliwatts alp);
          Report.pct ~baseline:rand_avg ~ours:alp;
        ])
      Dp_designs.Catalog.table2
  in
  Fmt.pr "%s@."
    (Report.table ~header:[ "Design"; "FA_random"; "FA_ALP"; "Impr." ] ~rows);
  Fmt.pr "Average improvement: %.1f%% (paper: 11.8%%)@."
    (Report.improvement ~baseline:!acc_rand ~ours:!acc_alp);
  Fmt.pr
    "(FA_random is averaged over %d seeds; the paper ran a single random \
     allocation.)@."
    (List.length random_seeds)

(* ------------------------------------------------------------------ *)
(* Extended benchmarks beyond the paper *)

let extended () =
  section
    "Extended benchmarks (beyond the paper) — Conventional vs CSA_OPT vs \
     FA_AOT, CLA CPAs";
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let conv = verified Strategy.Conventional d in
        let csa = verified Strategy.Csa_opt d in
        let aot = verified Strategy.Fa_aot d in
        [
          d.name;
          Report.ns conv.stats.delay;
          Report.units conv.stats.area;
          Report.ns csa.stats.delay;
          Report.units csa.stats.area;
          Report.ns aot.stats.delay;
          Report.units aot.stats.area;
          Report.pct ~baseline:conv.stats.delay ~ours:aot.stats.delay;
          Report.pct ~baseline:csa.stats.delay ~ours:aot.stats.delay;
        ])
      Dp_designs.Catalog.extended
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [
           "Design"; "Conv t"; "Conv a"; "CSA t"; "CSA a"; "AOT t"; "AOT a";
           "dT/Conv"; "dT/CSA";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Fig. 1: FA allocation for F = X + Y + Z + W *)

let fig1_design () =
  let env =
    Dp_expr.Env.empty
    |> Dp_expr.Env.add_uniform "x" ~width:2
    |> Dp_expr.Env.add_uniform "y" ~width:2
    |> Dp_expr.Env.add_uniform "z" ~width:1
    |> Dp_expr.Env.add_uniform "w" ~width:2
  in
  (env, Dp_expr.Parse.expr "x + y + z + w")

let fig1 () =
  section "Fig. 1 — FA allocation for F = X + Y + Z + W (X,Y,W: 2-bit, Z: 1-bit)";
  let env, expr = fig1_design () in
  let netlist = Dp_netlist.Netlist.create ~tech:Dp_tech.Tech.unit_delay in
  let matrix = Dp_bitmatrix.Lower.lower netlist env expr ~width:3 in
  Fmt.pr "addend matrix (col populations, MSB..LSB): %a@."
    Dp_bitmatrix.Matrix.pp_shape matrix;
  Dp_core.Fa_aot.allocate netlist matrix;
  Fmt.pr "after FA allocation: %a@." Dp_bitmatrix.Matrix.pp_shape matrix;
  Fmt.pr "cells (paper: two FAs feeding the final adder):@.%a"
    Dp_netlist.Stats.pp_cells netlist

(* ------------------------------------------------------------------ *)
(* Fig. 2: effect of FA input selection on timing *)

let fig2_matrix netlist =
  let add name arrival =
    (Dp_netlist.Netlist.add_input netlist name ~width:1 ~arrival:[| arrival |]).(0)
  in
  let x0 = add "x0" 7.0 and y0 = add "y0" 2.0 in
  let z0 = add "z0" 3.0 and w0 = add "w0" 2.0 in
  let x1 = add "x1" 7.0 and y1 = add "y1" 5.0 in
  let w1 = add "w1" 4.0 in
  let m = Dp_bitmatrix.Matrix.create () in
  List.iter (fun b -> Dp_bitmatrix.Matrix.add m ~weight:0 b) [ x0; y0; z0; w0 ];
  List.iter (fun b -> Dp_bitmatrix.Matrix.add m ~weight:1 b) [ x1; y1; w1 ];
  m

let matrix_max netlist m =
  List.fold_left
    (fun acc j ->
      List.fold_left
        (fun acc net -> Float.max acc (Dp_netlist.Netlist.arrival netlist net))
        acc
        (Dp_bitmatrix.Matrix.column m j))
    neg_infinity
    (List.init (Dp_bitmatrix.Matrix.width m) Fun.id)

let fig2 () =
  section
    "Fig. 2 — F = X+Y+Z+W with arrivals x=(7,7) y=(2,5) z=(3) w=(2,4), \
     Ds=2, Dc=1\npaper: Wallace 9, column-isolation 9, column-interaction 8";
  List.iter
    (fun (label, allocate, paper) ->
      let netlist = Dp_netlist.Netlist.create ~tech:Dp_tech.Tech.unit_delay in
      let m = fig2_matrix netlist in
      allocate netlist m;
      Fmt.pr "%-22s latest final-adder input at %.0f   (paper: %s)@." label
        (matrix_max netlist m) paper)
    [
      ("(a) Wallace", Dp_core.Wallace.allocate, "9");
      ("(b) column-isolation", Dp_core.Column_isolation.allocate, "9");
      ( "(c) column-interaction",
        (fun n m -> Dp_core.Fa_aot.allocate n m),
        "8; we obtain 7 — see EXPERIMENTS.md" );
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: single-column reduction, m = 6 *)

let fig3 () =
  section "Fig. 3 — reducing a single 6-addend column to the 2-row matrix";
  let netlist = Dp_netlist.Netlist.create ~tech:Dp_tech.Tech.unit_delay in
  let bits =
    Dp_netlist.Netlist.add_input netlist "x" ~width:6
      ~arrival:[| 0.0; 0.0; 0.0; 0.0; 0.0; 0.0 |]
  in
  let m = Dp_bitmatrix.Matrix.create () in
  Array.iter (fun b -> Dp_bitmatrix.Matrix.add m ~weight:0 b) bits;
  Fmt.pr "initial: %a@." Dp_bitmatrix.Matrix.pp_shape m;
  Dp_core.Fa_aot.allocate netlist m;
  Fmt.pr "reduced: %a  (paper: two rows spanning columns 0 and 1)@."
    Dp_bitmatrix.Matrix.pp_shape m;
  Fmt.pr "cells:@.%a" Dp_netlist.Stats.pp_cells netlist

(* ------------------------------------------------------------------ *)
(* Fig. 4: effect of FA input selection on power *)

let fig4 () =
  section
    "Fig. 4 — four addends with p = 0.1/0.2/0.3/0.4, Ws = Wc = 1\n\
     paper: E(T1) = 0.411 vs E(T2) = 0.400 (printed values; exact algebra \
     gives 0.416 vs 0.329 — same ordering)";
  let e qx qy qz =
    let qs = Dp_power.Prob.fa_sum_q qx qy qz in
    let qc = Dp_power.Prob.fa_carry_q qx qy qz in
    (0.25 -. (qs *. qs)) +. (0.25 -. (qc *. qc))
  in
  Fmt.pr "T1 = FA(x2,x3,x4) (smallest |q|): E = %.5f@." (e (-0.3) (-0.2) (-0.1));
  Fmt.pr "T2 = FA(x1,x2,x3) (largest |q|):  E = %.5f@." (e (-0.4) (-0.3) (-0.2));
  let netlist = Dp_netlist.Netlist.create ~tech:Dp_tech.Tech.lcb_like in
  let bits =
    Dp_netlist.Netlist.add_input netlist "x" ~width:4
      ~prob:[| 0.1; 0.2; 0.3; 0.4 |]
      ~arrival:[| 0.0; 0.0; 0.0; 0.0 |]
  in
  let m = Dp_bitmatrix.Matrix.create () in
  Array.iter (fun b -> Dp_bitmatrix.Matrix.add m ~weight:0 b) bits;
  Dp_core.Fa_alp.allocate netlist m;
  Fmt.pr "SC_LP's allocation (must be T2's selection):@.%a"
    Dp_netlist.Stats.pp_cells netlist

(* ------------------------------------------------------------------ *)
(* Ablation A: CSD vs binary coefficient recoding *)

let ablation_csd () =
  section "Ablation A — CSD vs plain binary coefficient recoding (FA_AOT)";
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let csd =
          verified
            ~lower_config:{ Dp_bitmatrix.Lower.default_config with recoding = Csd }
            Strategy.Fa_aot d
        in
        let bin =
          verified
            ~lower_config:{ Dp_bitmatrix.Lower.default_config with recoding = Binary }
            Strategy.Fa_aot d
        in
        [
          d.name;
          Report.ns csd.stats.delay;
          Report.units csd.stats.area;
          Report.ns bin.stats.delay;
          Report.units bin.stats.area;
          Report.pct ~baseline:bin.stats.area ~ours:csd.stats.area;
        ])
      Dp_designs.Catalog.table1
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:[ "Design"; "CSD t"; "CSD a"; "Bin t"; "Bin a"; "area impr." ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Ablation B: final adder architecture at the FA-tree root *)

let ablation_adder () =
  section "Ablation B — final adder architecture under FA_AOT";
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let best = Synth.run_best_adder Strategy.Fa_aot d.env d.expr ~width:d.width in
        (d.name
        :: List.concat_map
             (fun kind ->
               let r = verified ~adder:kind Strategy.Fa_aot d in
               [ Report.ns r.stats.delay; Report.units r.stats.area ])
             Dp_adders.Adder.all)
        @ [ Report.ns best.stats.delay ])
      [
        Dp_designs.Catalog.kalman; Dp_designs.Catalog.idct;
        Dp_designs.Catalog.complex; Dp_designs.Catalog.serial_adapter;
      ]
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [ "Design"; "ripple t"; "a"; "cla t"; "a"; "c-sel t"; "a"; "ks t"; "a"; "best t" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Ablation C: combined tie-breaking rules *)

let ablation_tie () =
  section "Ablation C — tie-breaking: FA_AOT+|q| ties and FA_ALP+arrival ties";
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let aot = verified Strategy.Fa_aot d in
        let aot_q = verified Strategy.Fa_aot_combined d in
        let alp = verified Strategy.Fa_alp d in
        let alp_t = verified Strategy.Fa_alp_combined d in
        [
          d.name;
          Report.ns aot.stats.delay;
          Printf.sprintf "%.3f" aot.tree_switching;
          Report.ns aot_q.stats.delay;
          Printf.sprintf "%.3f" aot_q.tree_switching;
          Report.ns alp.stats.delay;
          Printf.sprintf "%.3f" alp.tree_switching;
          Report.ns alp_t.stats.delay;
          Printf.sprintf "%.3f" alp_t.tree_switching;
        ])
      Dp_designs.Catalog.table2
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [
           "Design"; "AOT t"; "AOT E"; "AOT+q t"; "AOT+q E"; "ALP t"; "ALP E";
           "ALP+t t"; "ALP+t E";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Ablation D: the HA-on-exactly-three convention vs the adaptive finish *)

let ablation_finish () =
  section
    "Ablation D — SC_T's HA-on-three rule (paper, footnote 1) vs an FA on \
     all three\n(reduced = latest arrival into the final adder)";
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let reduced (r : Synth.result) =
          Option.value r.reduced_max_arrival ~default:nan
        in
        let aot = verified Strategy.Fa_aot d in
        let ada = verified Strategy.Fa_aot_fa3 d in
        let csa = verified Strategy.Csa_opt d in
        [
          d.name;
          Printf.sprintf "%.2f" (reduced aot);
          Printf.sprintf "%.2f" (reduced ada);
          Printf.sprintf "%.2f" (reduced csa);
          Report.ns aot.stats.delay;
          Report.ns ada.stats.delay;
        ])
      Dp_designs.Catalog.table1
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [ "Design"; "HA red."; "FA3 red."; "CSA red."; "HA t"; "FA3 t" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Ablation E: Booth vs AND-array partial products *)

let ablation_booth () =
  section
    "Ablation E — radix-4 Booth vs AND-array partial products (FA_AOT)\n\
     Booth applies to +/-1-coefficient products of unsigned variables \
     (here: Complex and a plain 16x16 multiplier)";
  let mult16 =
    {
      Dp_designs.Design.name = "Mult16x16";
      description = "plain 16x16 unsigned multiplier";
      expr = Dp_expr.Parse.expr "x*y";
      env = Dp_expr.Env.of_widths [ ("x", 16); ("y", 16) ];
      width = 32;
    }
  in
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        let style multiplier_style =
          verified
            ~lower_config:{ Dp_bitmatrix.Lower.default_config with multiplier_style }
            Strategy.Fa_aot d
        in
        let plain = style Dp_bitmatrix.Lower.And_array in
        let booth = style Dp_bitmatrix.Lower.Booth in
        [
          d.name;
          Report.ns plain.stats.delay;
          Report.units plain.stats.area;
          string_of_int plain.stats.fa_count;
          Report.ns booth.stats.delay;
          Report.units booth.stats.area;
          string_of_int booth.stats.fa_count;
        ])
      [ mult16; Dp_designs.Catalog.complex ]
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:[ "Design"; "AND t"; "AND a"; "FA"; "Booth t"; "Booth a"; "FA" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Ablation F: glitch power under real delays (the paper's model is
   zero-delay and "ignores signal transitions due to glitches") *)

let ablation_glitch () =
  section
    "Ablation F — glitch factor: timed (event-driven) switching energy / \
     zero-delay switching energy\n(1.00 = glitch-free; the paper's model \
     assumes exactly 1.00)";
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        d.name
        :: List.map
             (fun strategy ->
               let r = run strategy d in
               Printf.sprintf "%.2f"
                 (Dp_sim.Event_sim.glitch_factor r.netlist ~vectors:300 ~seed:11))
             [ Strategy.Wallace; Strategy.Csa_opt; Strategy.Fa_aot; Strategy.Fa_alp ])
      [
        Dp_designs.Catalog.x3; Dp_designs.Catalog.poly_mixed;
        Dp_designs.Catalog.iir; Dp_designs.Catalog.serial_adapter;
      ]
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:[ "Design"; "Wallace"; "CSA_OPT"; "FA_AOT"; "FA_ALP" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Ablation G: pipelining cost — latency and register bits at a fixed
   cycle time, per allocation strategy *)

let ablation_pipeline () =
  section
    "Ablation G — pipelining at a 2.0 ns cycle: latency (cycles) and \
     register bits per strategy";
  let cycle_time = 2.0 in
  let rows =
    List.map
      (fun (d : Dp_designs.Design.t) ->
        d.name
        :: List.concat_map
             (fun strategy ->
               let r = run strategy d in
               let p = Dp_pipeline.Pipeline.plan r.netlist ~cycle_time in
               [ string_of_int p.latency; string_of_int p.register_bits ])
             [ Strategy.Conventional; Strategy.Csa_opt; Strategy.Fa_aot ])
      [
        Dp_designs.Catalog.fir8; Dp_designs.Catalog.idct;
        Dp_designs.Catalog.kalman; Dp_designs.Catalog.complex;
      ]
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [ "Design"; "Conv lat"; "regs"; "CSA lat"; "regs"; "AOT lat"; "regs" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* GPC counters vs the FA-only strategies *)

let counters () =
  section
    "GPC counters — 7:3/6:3/5:3/4:2 column reduction vs FA-only baselines \
     (all bodies certified, all runs equivalence-checked)";
  let pairs =
    [
      (Dp_designs.Catalog.poly_square, Strategy.Sc_t_gpc, Strategy.Fa_aot);
      (Dp_designs.Catalog.idct, Strategy.Sc_t_gpc, Strategy.Fa_aot);
      (Dp_designs.Catalog.complex, Strategy.Sc_t_gpc, Strategy.Fa_aot);
      (Dp_designs.Crypto.mul_mod_diag, Strategy.Sc_t_gpc, Strategy.Fa_aot);
      (Dp_designs.Crypto.mac_chain, Strategy.Sc_t_gpc, Strategy.Fa_aot);
      (Dp_designs.Catalog.idct, Strategy.Sc_lp_gpc, Strategy.Fa_alp);
      (Dp_designs.Catalog.idct, Strategy.Dadda_gpc, Strategy.Dadda);
    ]
  in
  let rows =
    List.map
      (fun ((d : Dp_designs.Design.t), gpc, base) ->
        let rg = verified gpc d in
        let rb = verified base d in
        [
          d.name;
          Strategy.name gpc;
          Report.ns rg.stats.delay;
          Report.ns rb.stats.delay;
          string_of_int rg.stats.cells;
          string_of_int rb.stats.cells;
          string_of_int rg.stats.counter_count;
          string_of_int (reduction_levels rg.netlist);
          string_of_int (reduction_levels rb.netlist);
        ])
      pairs
  in
  Fmt.pr "%s@."
    (Report.table
       ~header:
         [
           "Design"; "GPC"; "delay"; "base"; "cells"; "base"; "ctrs";
           "stages"; "base";
         ]
       ~rows);
  Fmt.pr
    "stages = longest FA/HA/counter chain; the GPC strategies buy their \
     shallower trees by packing whole columns into single counter levels.@."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("extended", extended);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("ablation-csd", ablation_csd);
    ("ablation-adder", ablation_adder);
    ("ablation-tie", ablation_tie);
    ("ablation-finish", ablation_finish);
    ("ablation-booth", ablation_booth);
    ("ablation-glitch", ablation_glitch);
    ("ablation-pipeline", ablation_pipeline);
    ("counters", counters);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Fmt.epr "unknown experiment %s; available: %s@." name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names
