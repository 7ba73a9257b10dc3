(* Property-based tests (qcheck, registered as alcotest cases).  The
   central generator produces random expressions over a small environment;
   the central property is that every synthesis strategy produces a netlist
   equivalent to the expression mod 2^W. *)

open Dp_expr
open Helpers

let vars_pool = [ ("a", 3); ("b", 2); ("c", 3) ]

let gen_expr =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            map (fun (v, _) -> Ast.Var v) (oneofl vars_pool);
            map Ast.const (int_range (-12) 12);
          ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map (fun (v, _) -> Ast.Var v) (oneofl vars_pool);
            map Ast.const (int_range (-12) 12);
            map2 (fun a b -> Ast.Add (a, b)) sub sub;
            map2 (fun a b -> Ast.Sub (a, b)) sub sub;
            map2 (fun a b -> Ast.Mul (a, b)) sub sub;
            map (fun a -> Ast.Neg a) sub;
            map (fun a -> Ast.Pow (a, 2)) sub;
          ])

let small_expr = QCheck2.Gen.(map (fun e -> e) (gen_expr |> map (fun e -> e)))

let env = Env.of_widths vars_pool

let print_expr = Ast.to_string

let total_input_bits e =
  List.fold_left
    (fun acc v -> acc + List.assoc v vars_pool)
    0 (Ast.vars e)

(* Keep expressions whose SOP stays small so lowering is fast.  The
   expansion is bounded ([Helpers.bounded_sop]): expanding a deep product
   of sums in full before checking its size can run for minutes. *)
let tractable e =
  match bounded_sop ~max_terms:256 e with
  | Some sop -> Sop.term_count sop <= 40 && Sop.max_degree sop <= 6
  | None -> false
  | exception _ -> false

let mk_prop name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:60 ~print:print_expr gen prop)

let equivalence_property strategy e =
  QCheck2.assume (tractable e);
  let width =
    let natural = Range.natural_width env e in
    min natural 20
  in
  let r = Dp_flow.Synth.run strategy env e ~width in
  let ok =
    if total_input_bits e <= 8 then
      Dp_sim.Equiv.check_exhaustive r.netlist e ~output:"out" ~width
    else Dp_sim.Equiv.check_random ~trials:40 r.netlist e ~output:"out" ~width
  in
  match ok with
  | Ok () -> true
  | Error m -> QCheck2.Test.fail_reportf "%a" Dp_sim.Equiv.pp_mismatch m

let prop_fa_aot_equivalent =
  mk_prop "FA_AOT netlist ≡ expression (mod 2^W)" gen_expr
    (equivalence_property Dp_flow.Strategy.Fa_aot)

let prop_fa_alp_equivalent =
  mk_prop "FA_ALP netlist ≡ expression" gen_expr
    (equivalence_property Dp_flow.Strategy.Fa_alp)

let prop_wallace_equivalent =
  mk_prop "Wallace netlist ≡ expression" gen_expr
    (equivalence_property Dp_flow.Strategy.Wallace)

let prop_dadda_equivalent =
  mk_prop "Dadda netlist ≡ expression" gen_expr
    (equivalence_property Dp_flow.Strategy.Dadda)

let prop_csa_opt_equivalent =
  mk_prop "CSA_OPT netlist ≡ expression" gen_expr
    (equivalence_property Dp_flow.Strategy.Csa_opt)

let prop_conventional_equivalent =
  mk_prop "Conventional netlist ≡ expression" gen_expr
    (equivalence_property Dp_flow.Strategy.Conventional)

let prop_column_isolation_equivalent =
  mk_prop "Column-isolation netlist ≡ expression" gen_expr
    (equivalence_property Dp_flow.Strategy.Column_isolation)

let prop_fa_random_equivalent =
  mk_prop "FA_random netlist ≡ expression" gen_expr
    (equivalence_property (Dp_flow.Strategy.Fa_random 7))

(* SOP normalization agrees with the interpreter on random expressions
   whose expansion stays bounded *)
let prop_sop_eval =
  mk_prop "SOP eval = AST eval" gen_expr (fun e ->
      QCheck2.assume (bounded_sop ~max_terms:256 e <> None);
      let assign v = match v with "a" -> 5 | "b" -> 2 | _ -> 7 in
      Sop.eval assign (Sop.of_expr e) = Eval.eval assign e)

(* Whether the exact (bignum) value of [e] under [alist] lies in [r],
   reading [hi = max_int] / [lo = min_int] as no bound.  The value is not
   taken from [Eval], whose native ints wrap past 2^62. *)
let in_range (r : Range.t) e alist =
  let module B = Dp_fuzz.Bigval in
  let v = B.eval (fun x -> B.of_int (assign_of alist x)) e in
  (r.lo = min_int || B.compare (B.of_int r.lo) v <= 0)
  && (r.hi = max_int || B.compare v (B.of_int r.hi) <= 0)

(* Range analysis is sound: the value of any assignment lies in the range *)
let prop_range_sound =
  mk_prop "range analysis is sound" gen_expr (fun e ->
      QCheck2.assume (tractable e);
      let r = Range.of_expr env e in
      let rng = Random.State.make [| Hashtbl.hash (Ast.to_string e) |] in
      let ok = ref true in
      for _ = 1 to 30 do
        let alist =
          List.map (fun (v, w) -> (v, Random.State.int rng (1 lsl w))) vars_pool
        in
        if not (in_range r e alist) then ok := false
      done;
      !ok)

(* ... also with wide operands and big constants, whose ranges leave the
   int range *)
let wide_vars = [ ("p", 62); ("q", 40); ("r", 24) ]

let gen_wide_expr =
  let open QCheck2.Gen in
  sized_size (int_range 1 12)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               map (fun (v, _) -> Ast.Var v) (oneofl wide_vars);
               map Ast.const (int_range (-(1 lsl 40)) (1 lsl 40));
             ]
         in
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2 (fun a b -> Ast.Add (a, b)) sub sub;
               map2 (fun a b -> Ast.Sub (a, b)) sub sub;
               map2 (fun a b -> Ast.Mul (a, b)) sub sub;
               map (fun a -> Ast.Neg a) sub;
             ])

let prop_range_sound_wide =
  mk_prop "range analysis is sound past the int range" gen_wide_expr (fun e ->
      let r = Range.of_expr (Env.of_widths wide_vars) e in
      let rng = Random.State.make [| Hashtbl.hash (Ast.to_string e) |] in
      List.for_all
        (fun trial ->
          let value w =
            match trial mod 3 with
            | 0 -> 0
            | 1 -> Eval.mask w
            | _ -> Random.State.full_int rng (Eval.mask w)
          in
          in_range r e (List.map (fun (v, w) -> (v, value w)) wide_vars))
        (List.init 30 Fun.id))

(* CSD recoding *)
let prop_csd =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"CSD: value, canonical, no worse than binary"
       ~count:500 QCheck2.Gen.(int_range (-100000) 100000)
       (fun n ->
         let digits = Csd.recode n in
         Csd.value digits = n
         && Csd.is_canonical digits
         && Csd.nonzero_count digits <= Csd.nonzero_count (Csd.binary n)))

(* Adders: random widths and operands, all four architectures, with cin *)
let prop_adders =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"adders: a + b + cin mod 2^w" ~count:120
       QCheck2.Gen.(
         quad (int_range 1 24) (int_range 0 max_int) (int_range 0 max_int) bool)
       (fun (w, a0, b0, cin) ->
         let mask = Eval.mask w in
         let va = a0 land mask and vb = b0 land mask in
         List.for_all
           (fun kind ->
             let n = mk_netlist () in
             let a = Dp_netlist.Netlist.add_input n "a" ~width:w in
             let b = Dp_netlist.Netlist.add_input n "b" ~width:w in
             let cin_net =
               if cin then Some (Dp_netlist.Netlist.const n true) else None
             in
             let sums = Dp_adders.Adder.build ?cin:cin_net kind n ~a ~b in
             Dp_netlist.Netlist.set_output n "out" sums;
             let assign name = if name = "a" then va else vb in
             Dp_sim.Simulator.eval_output n ~assign "out"
             = (va + vb + Bool.to_int cin) land mask)
           Dp_adders.Adder.all))

(* The FA probability algebra, fuzzed against exact 8-case enumeration *)
let prop_fa_prob_algebra =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"FA q-algebra = exact enumeration" ~count:200
       QCheck2.Gen.(triple (float_bound_inclusive 1.0) (float_bound_inclusive 1.0)
                      (float_bound_inclusive 1.0))
       (fun (px, py, pz) ->
         let exact_sum = ref 0.0 and exact_carry = ref 0.0 in
         for v = 0 to 7 do
           let bx = v land 1 and by = (v lsr 1) land 1 and bz = (v lsr 2) land 1 in
           let w =
             (if bx = 1 then px else 1.0 -. px)
             *. (if by = 1 then py else 1.0 -. py)
             *. (if bz = 1 then pz else 1.0 -. pz)
           in
           let ones = bx + by + bz in
           if ones land 1 = 1 then exact_sum := !exact_sum +. w;
           if ones >= 2 then exact_carry := !exact_carry +. w
         done;
         let qx = px -. 0.5 and qy = py -. 0.5 and qz = pz -. 0.5 in
         Float.abs (!exact_sum -. (0.5 +. Dp_power.Prob.fa_sum_q qx qy qz)) < 1e-9
         && Float.abs (!exact_carry -. (0.5 +. Dp_power.Prob.fa_carry_q qx qy qz))
            < 1e-9))

(* Every strategy's STA and probability annotations are internally
   consistent after synthesis *)
let prop_annotations_consistent =
  mk_prop "builder annotations = from-scratch engines" gen_expr (fun e ->
      QCheck2.assume (tractable e);
      let width = min (Range.natural_width env e) 16 in
      List.for_all
        (fun strategy ->
          let r = Dp_flow.Synth.run strategy env e ~width in
          Dp_timing.Sta.agrees_with_annotation r.netlist
          && Dp_power.Prob.agrees_with_annotation r.netlist)
        [ Dp_flow.Strategy.Fa_aot; Dp_flow.Strategy.Fa_alp;
          Dp_flow.Strategy.Conventional ])

let suite =
  [
    prop_fa_aot_equivalent;
    prop_fa_alp_equivalent;
    prop_wallace_equivalent;
    prop_dadda_equivalent;
    prop_csa_opt_equivalent;
    prop_conventional_equivalent;
    prop_column_isolation_equivalent;
    prop_fa_random_equivalent;
    prop_sop_eval;
    prop_range_sound;
    prop_csd;
    prop_adders;
    prop_fa_prob_algebra;
    prop_annotations_consistent;
    prop_range_sound_wide;
  ]
