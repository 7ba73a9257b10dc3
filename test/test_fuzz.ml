(* The fuzzing subsystem's own tests: deterministic generation, bignum
   reference semantics, shrinker soundness, budget enforcement, corpus
   round-trips, fault-injection detection, and the replay harness that
   turns every file under test/corpus/ into a regression test. *)

open Helpers
module Fz = Dp_fuzz

(* A fast oracle config for tests: two strategies, one adder, few trials. *)
let quick_oracle =
  {
    Fz.Oracle.default_config with
    strategies = [ Dp_flow.Strategy.Fa_aot; Dp_flow.Strategy.Conventional ];
    adders = [ Dp_adders.Adder.Ripple ];
    trials = 8;
  }

(* ------------------------------------------------------------------ *)
(* Bigval: the independent reference must agree with native ints
   wherever natives are exact. *)

let bigval_matches_native () =
  let module B = Fz.Bigval in
  let vals = [ 0; 1; -1; 7; -13; 255; 1 lsl 20; -(1 lsl 20); 123456789 ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          checki (Printf.sprintf "%d+%d" a b) (a + b)
            (Option.get (B.to_int_opt (B.add (B.of_int a) (B.of_int b))));
          checki (Printf.sprintf "%d-%d" a b) (a - b)
            (Option.get (B.to_int_opt (B.sub (B.of_int a) (B.of_int b))));
          checki (Printf.sprintf "%d*%d" a b) (a * b)
            (Option.get (B.to_int_opt (B.mul (B.of_int a) (B.of_int b)))))
        vals;
      (* cubes only where they stay exact in a native int *)
      if abs a <= 1 lsl 20 then
        checki (Printf.sprintf "%d^3" a) (a * a * a)
          (Option.get (B.to_int_opt (B.pow (B.of_int a) 3)));
      check Alcotest.string (Printf.sprintf "to_string %d" a) (string_of_int a)
        (B.to_string (B.of_int a)))
    vals;
  (* two's-complement reduction matches the native mask semantics *)
  List.iter
    (fun a ->
      List.iter
        (fun w ->
          checki
            (Printf.sprintf "%d mod 2^%d" a w)
            (a land Dp_expr.Eval.mask w)
            (B.to_int_mod ~width:w (B.of_int a)))
        [ 1; 2; 7; 16; 62 ])
    vals

let bigval_grows_beyond_native () =
  let module B = Fz.Bigval in
  (* (2^40)^3 = 2^120 overflows a native int but must round-trip through
     the decimal printer and reduce correctly mod 2^62. *)
  let big = B.pow (B.of_int (1 lsl 40)) 3 in
  checkb "no longer fits an int" true (B.to_int_opt big = None);
  check Alcotest.string "2^120" "1329227995784915872903807060280344576"
    (B.to_string big);
  checki "2^120 mod 2^62" 0 (B.to_int_mod ~width:62 big)

(* ------------------------------------------------------------------ *)
(* Generator determinism *)

let generator_deterministic () =
  let stream seed =
    let rng = Random.State.make [| seed |] in
    List.init 60 (Fz.Gen.case rng)
  in
  let a = stream 7 and b = stream 7 and c = stream 8 in
  List.iteri
    (fun i (x, y) -> checkb (Printf.sprintf "case %d equal" i) true (Fz.Case.equal x y))
    (List.combine a b);
  checkb "different seeds differ somewhere" true
    (List.exists2 (fun x y -> not (Fz.Case.equal x y)) a c)

let generator_cases_well_formed () =
  let rng = Random.State.make [| 3 |] in
  for i = 0 to 99 do
    let case = Fz.Gen.case rng i in
    checkb "has a port" true (case.Fz.Case.ports <> []);
    List.iter
      (fun (_, _, w) ->
        checkb (Printf.sprintf "case %d width %d in [1,62]" i w) true
          (w >= 1 && w <= 62))
      case.Fz.Case.ports;
    (* every used variable is bound, so Case.env cannot raise *)
    ignore (Fz.Case.env case)
  done

(* ------------------------------------------------------------------ *)
(* Shrinker *)

(* Synthetic predicate: fails iff some port's expression contains a
   multiplication AND some variable is at least 4 bits wide.  The
   shrinker must preserve the code and reach a locally minimal case. *)
let shrink_synthetic () =
  let rec has_mul = function
    | Dp_expr.Ast.Mul _ -> true
    | Dp_expr.Ast.Var _ | Dp_expr.Ast.Const _ -> false
    | Dp_expr.Ast.Add (a, b) | Dp_expr.Ast.Sub (a, b) -> has_mul a || has_mul b
    | Dp_expr.Ast.Neg a -> has_mul a
    | Dp_expr.Ast.Pow (a, _) -> has_mul a
  in
  let test (c : Fz.Case.t) =
    if
      List.exists (fun (_, e, _) -> has_mul e) c.ports
      && List.exists (fun (v : Fz.Case.var_spec) -> v.width >= 4) c.vars
    then
      Some (Dp_diag.Diag.v ~code:"T-MUL" ~subsystem:"test" "mul with a wide var")
    else None
  in
  let vars =
    [
      Fz.Case.make_var "a" ~width:8 ~signed:true ~arrival:2.5 ~prob:0.9;
      Fz.Case.make_var "b" ~width:6;
      Fz.Case.make_var "c" ~width:1;
    ]
  in
  let expr = Dp_expr.Parse.expr "a*b + c*3 - (b + a)*(c + 2)" in
  let case = Fz.Case.single ~vars expr ~width:30 in
  let shrunk, diag = Fz.Shrink.minimize ~test case in
  check Alcotest.string "code preserved" "T-MUL" diag.Dp_diag.Diag.code;
  checkb "shrunk case still fails" true (test shrunk <> None);
  checkb "strictly smaller" true (Fz.Case.size shrunk < Fz.Case.size case);
  (* local minimality: a single Mul of one wide variable and a constant
     is the least structure satisfying the predicate (size analysis:
     1 var + Mul node + two leaves = 4). *)
  checkb "reached the minimal shape" true (Fz.Case.size shrunk <= 4)

let shrink_rejects_passing_case () =
  let case =
    Fz.Case.single ~vars:[ Fz.Case.make_var "x" ~width:4 ]
      (Dp_expr.Parse.expr "x + 1") ~width:5
  in
  checkb "invalid_arg on a passing case" true
    (match Fz.Shrink.minimize ~test:(fun _ -> None) case with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Budgets *)

let budget_static_rows () =
  (* x^3 * y^3 * x * y at 8 bits explodes the partial-product estimate *)
  let vars =
    [ Fz.Case.make_var "x" ~width:8; Fz.Case.make_var "y" ~width:8 ]
  in
  let case =
    Fz.Case.single ~vars (Dp_expr.Parse.expr "(x*y)^3 * x * y") ~width:62
  in
  (match Fz.Budget.check_static Fz.Budget.default case with
  | Ok () -> Alcotest.fail "expected DP-BUDGET003"
  | Error d -> check Alcotest.string "code" "DP-BUDGET003" d.Dp_diag.Diag.code);
  (* ... and the oracle reports it as Bounded, not as a failure *)
  (match Fz.Oracle.check ~config:quick_oracle case with
  | Fz.Oracle.Bounded d ->
    check Alcotest.string "bounded code" "DP-BUDGET003" d.Dp_diag.Diag.code
  | Fz.Oracle.Pass -> Alcotest.fail "expected Bounded, got Pass"
  | Fz.Oracle.Fail f ->
    Alcotest.failf "expected Bounded, got Fail %s" f.diag.Dp_diag.Diag.code);
  (* unlimited budget lets the same case through the static check *)
  checkb "unlimited passes" true
    (Fz.Budget.check_static Fz.Budget.unlimited case = Ok ())

(* Eight one-bit operands raised to the 17th power: distributing the
   product over the sums visits millions of terms, seconds of work before
   lowering builds its first cell. *)
let sop_explosion =
  let vars =
    List.map
      (fun v -> Fz.Case.make_var v ~width:1)
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  Fz.Case.single ~vars (Dp_expr.Parse.expr "(a+b+c+d+e+f+g+h)^17") ~width:8

let under_timeout ?(config = quick_oracle) timeout_s case =
  Fz.Oracle.check
    ~config:{ config with budget = { Fz.Budget.unlimited with timeout_s } }
    case

let expect_deadline = function
  | Fz.Oracle.Bounded d ->
    check Alcotest.string "code" "DP-CANCEL001" d.Dp_diag.Diag.code
  | o ->
    Alcotest.failf "expected Bounded DP-CANCEL001, got %a" Fz.Oracle.pp_outcome o

let budget_timeout_bounds_heavy_case () =
  let t0 = Unix.gettimeofday () in
  expect_deadline (under_timeout 0.001 sop_explosion);
  checkb "bounded well before the expansion finishes" true
    (Unix.gettimeofday () -. t0 < 2.0)

(* Each oracle run governs its own thread: a short deadline in one
   thread bounds only that thread's synthesis, while a run in another
   thread, checking every strategy x adder pair and so still busy when
   the short deadline passes, is judged in full. *)
let budget_timeouts_are_per_thread () =
  let light =
    Fz.Case.single
      ~vars:[ Fz.Case.make_var "x" ~width:8; Fz.Case.make_var "y" ~width:8 ]
      (Dp_expr.Parse.expr "x*y*y + x*y + 3*x") ~width:24
  in
  let heavy_outcome = ref Fz.Oracle.Pass in
  let light_outcome = ref Fz.Oracle.Pass in
  let spawn r f = Thread.create (fun () -> r := f ()) () in
  let threads =
    [
      spawn heavy_outcome (fun () -> under_timeout 0.05 sop_explosion);
      spawn light_outcome (fun () ->
          under_timeout ~config:Fz.Oracle.default_config 30.0 light);
    ]
  in
  List.iter Thread.join threads;
  expect_deadline !heavy_outcome;
  match !light_outcome with
  | Fz.Oracle.Pass -> ()
  | o -> Alcotest.failf "expected Pass, got %a" Fz.Oracle.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Oracle on known-good and known-bad inputs *)

let oracle_passes_clean_cases () =
  let rng = Random.State.make [| 11 |] in
  for i = 0 to 11 do
    let case = Fz.Gen.case rng i in
    match Fz.Oracle.check ~config:quick_oracle case with
    | Fz.Oracle.Pass | Fz.Oracle.Bounded _ -> ()
    | Fz.Oracle.Fail f ->
      Alcotest.failf "case %d: %s" i (Dp_diag.Diag.to_string f.diag)
  done

let oracle_catches_wrong_netlist () =
  (* Synthesize x+y but check it against x*y: the differential oracle
     must report a divergence. *)
  let vars =
    [ Fz.Case.make_var "x" ~width:4; Fz.Case.make_var "y" ~width:4 ]
  in
  let good = Fz.Case.single ~vars (Dp_expr.Parse.expr "x + y") ~width:5 in
  let claimed = Fz.Case.single ~vars (Dp_expr.Parse.expr "x * y") ~width:5 in
  let r =
    Dp_diag.Diag.get_ok
      (Dp_flow.Synth.run_res ~width:5 Dp_flow.Strategy.Fa_aot
         (Fz.Case.env good) (Dp_expr.Parse.expr "x + y"))
  in
  checkb "x+y netlist diverges from x*y" true
    (Fz.Oracle.diverges claimed ~port:"out" ~width:5 r.netlist);
  checkb "x+y netlist matches x+y" false
    (Fz.Oracle.diverges good ~port:"out" ~width:5 r.netlist)

(* ------------------------------------------------------------------ *)
(* Driver: a small end-to-end batch must be clean and deterministic *)

let driver_small_batch () =
  let config =
    {
      Fz.Driver.default_config with
      seed = 5;
      cases = 25;
      oracle = quick_oracle;
      inject_every = 4;
    }
  in
  let r1 = Fz.Driver.run config in
  let r2 = Fz.Driver.run config in
  checki "executed" 25 r1.executed;
  checkb "no findings" true (r1.findings = []);
  checkb "some faults were injected" true (r1.injected > 0);
  checkb "injected faults were caught" true (r1.injected_caught > 0);
  checki "deterministic: passed" r1.passed r2.passed;
  checki "deterministic: injected_caught" r1.injected_caught r2.injected_caught

(* ------------------------------------------------------------------ *)
(* Fault injection: the acceptance criterion — an intentionally injected
   fault is caught and shrunk to a corpus-format reproducer. *)

let injected_fault_shrinks_to_corpus_entry () =
  let vars =
    [ Fz.Case.make_var "x" ~width:6; Fz.Case.make_var "y" ~width:6 ]
  in
  let case =
    Fz.Case.single ~vars (Dp_expr.Parse.expr "x*y + 3*x - y + 7") ~width:13
  in
  (* Find a (mutation, seed) pair this netlist detects, as the fuzz loop
     does, then shrink while detection persists. *)
  let detected =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun mseed ->
            match
              Fz.Driver.fault_detected ~oracle:quick_oracle ~mutation:m ~mseed
                case
            with
            | `Caught_by_lint _ | `Caught_by_divergence _ -> Some (m, mseed)
            | `No_site | `Not_synthesizable _ | `Neutral _ | `Escaped _ -> None)
          [ 0; 1; 2 ])
      Dp_verify.Inject.all
  in
  checkb "at least one mutation is detected" true (detected <> []);
  let mutation, mseed = List.hd detected in
  match
    Fz.Driver.shrink_detected_fault ~oracle:quick_oracle ~mutation ~mseed case
  with
  | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)
  | Ok entry ->
    check Alcotest.string "entry records the detection code" "DP-FUZZ006"
      (Option.get entry.Fz.Corpus.diag_code);
    checkb "entry records the mutation" true
      (entry.Fz.Corpus.inject = Some (mutation, mseed));
    checkb "shrunk no bigger than the original" true
      (Fz.Case.size entry.Fz.Corpus.case <= Fz.Case.size case);
    (* the corpus round-trip preserves the entry... *)
    let text = Fz.Corpus.to_string entry in
    (match Fz.Corpus.of_string text with
    | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)
    | Ok reloaded ->
      checkb "round-trips through the corpus format" true
        (Fz.Case.equal entry.Fz.Corpus.case reloaded.Fz.Corpus.case
        && reloaded.Fz.Corpus.inject = Some (mutation, mseed));
      (* ... and replaying it re-detects the fault *)
      (match Fz.Driver.replay ~oracle:quick_oracle reloaded with
      | Ok () -> ()
      | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)))

(* ------------------------------------------------------------------ *)
(* Corpus format *)

let corpus_round_trip () =
  let vars =
    [
      Fz.Case.make_var "x" ~width:5 ~signed:true ~arrival:1.25 ~prob:0.125;
      Fz.Case.make_var "y" ~width:1;
    ]
  in
  let case =
    {
      Fz.Case.vars;
      ports =
        [
          ("out0", Dp_expr.Parse.expr "x*y - 7", 9);
          ("out1", Dp_expr.Parse.expr "x + y + x*x", 11);
        ];
    }
  in
  let entry =
    Fz.Corpus.entry ~strategy:Dp_flow.Strategy.Dadda
      ~adder:Dp_adders.Adder.Kogge_stone ~diag_code:"DP-FUZZ001"
      ~comment:"round-trip fixture" case
  in
  checkb "an uppercase S marks a signed width too" true
    (Fz.Case.var_spec_of_string "x:5S:1.25:0.125" = Ok (List.hd vars));
  match Fz.Corpus.of_string (Fz.Corpus.to_string entry) with
  | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)
  | Ok e ->
    checkb "case preserved" true (Fz.Case.equal case e.Fz.Corpus.case);
    checkb "strategy preserved" true
      (e.Fz.Corpus.strategy = Some Dp_flow.Strategy.Dadda);
    checkb "adder preserved" true
      (e.Fz.Corpus.adder = Some Dp_adders.Adder.Kogge_stone);
    check Alcotest.string "diag preserved" "DP-FUZZ001"
      (Option.get e.Fz.Corpus.diag_code);
    check Alcotest.string "comment preserved" "round-trip fixture"
      (Option.get e.Fz.Corpus.comment)

let corpus_rejects_malformed () =
  let expect_error text =
    match Fz.Corpus.of_string text with
    | Ok _ -> Alcotest.failf "accepted malformed corpus entry: %S" text
    | Error d -> check Alcotest.string "code" "DP-CORPUS001" d.Dp_diag.Diag.code
  in
  expect_error "";  (* no port *)
  expect_error "port out 5 = x + 1";  (* unbound variable *)
  expect_error "var x:4\nport out 99 = x";  (* width out of range *)
  expect_error "var x:4\nport out 5 = x\nfrobnicate 3"  (* unknown key *)

let corpus_save_is_deterministic () =
  let dir = Filename.temp_file "dp_corpus" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let entry =
    Fz.Corpus.entry ~diag_code:"DP-FUZZ001"
      (Fz.Case.single ~vars:[ Fz.Case.make_var "x" ~width:3 ]
         (Dp_expr.Parse.expr "x*x") ~width:6)
  in
  let p1 = Fz.Corpus.save ~dir entry in
  let p2 = Fz.Corpus.save ~dir entry in
  check Alcotest.string "same content, same filename" p1 p2;
  (match Fz.Corpus.load_dir dir with
  | Ok [ (path, e) ] ->
    check Alcotest.string "path" p1 path;
    checkb "entry survives the disk round-trip" true
      (Fz.Case.equal entry.Fz.Corpus.case e.Fz.Corpus.case)
  | Ok l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)
  | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d));
  Sys.remove p1;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Replay the checked-in crash corpus: every file under test/corpus/ is
   a regression test. *)

let replay_checked_in_corpus () =
  match Fz.Driver.replay_dir "corpus" with
  | Ok n -> checkb "corpus is non-empty" true (n >= 3)
  | Error failures ->
    Alcotest.failf "%d corpus entries regressed; first: %s: %s"
      (List.length failures)
      (fst (List.hd failures))
      (Dp_diag.Diag.to_string (snd (List.hd failures)))

(* ------------------------------------------------------------------ *)
(* Synth.run_res hardening: exceptions become diagnostics (DP-INTERNAL
   is the catch-all; DP-ENV003 covers unbound variables on both entry
   points). *)

let run_res_never_leaks_exceptions () =
  let env = Dp_expr.Env.add_uniform "x" ~width:4 Dp_expr.Env.empty in
  (match
     Dp_flow.Synth.run_res Dp_flow.Strategy.Fa_aot env
       (Dp_expr.Parse.expr "x + nope")
   with
  | Ok _ -> Alcotest.fail "expected an error for an unbound variable"
  | Error d -> check Alcotest.string "env code" "DP-ENV003" d.Dp_diag.Diag.code);
  match
    Dp_flow.Synth.run_multi_res Dp_flow.Strategy.Fa_aot env
      [ { Dp_flow.Synth.name = "o"; expr = Dp_expr.Parse.expr "nope * 2"; width = 4 } ]
  with
  | Ok _ -> Alcotest.fail "expected an error for an unbound variable"
  | Error d ->
    check Alcotest.string "multi env code" "DP-ENV003" d.Dp_diag.Diag.code

let suite =
  [
    case "bigval matches native ints" bigval_matches_native;
    case "bigval grows beyond native ints" bigval_grows_beyond_native;
    case "generator is deterministic per seed" generator_deterministic;
    case "generated cases are well-formed" generator_cases_well_formed;
    case "shrinker preserves the diag code and minimizes" shrink_synthetic;
    case "shrinker rejects a passing case" shrink_rejects_passing_case;
    case "matrix-height budget trips as DP-BUDGET003" budget_static_rows;
    case "wall-clock budget bounds a heavy case as DP-CANCEL001"
      budget_timeout_bounds_heavy_case;
    case "wall-clock budgets are per thread" budget_timeouts_are_per_thread;
    case "oracle passes clean generated cases" oracle_passes_clean_cases;
    case "oracle catches a wrong netlist" oracle_catches_wrong_netlist;
    case "driver runs a clean deterministic batch" driver_small_batch;
    case "injected fault is caught and shrunk to a reproducer"
      injected_fault_shrinks_to_corpus_entry;
    case "corpus entries round-trip" corpus_round_trip;
    case "corpus rejects malformed entries" corpus_rejects_malformed;
    case "corpus save is deterministic" corpus_save_is_deterministic;
    case "checked-in corpus replays clean" replay_checked_in_corpus;
    case "run_res returns diagnostics, not exceptions" run_res_never_leaks_exceptions;
  ]
