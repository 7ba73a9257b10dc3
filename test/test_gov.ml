(* Resource governance: cooperative cancellation at every checkpoint
   class, abort-leaves-no-torn-state (no partial disk-cache entry,
   lint-clean partial netlists, byte-identical retry), and the
   crypto-catalog acceptance properties — a governed crypto synthesis
   aborts within two checkpoint intervals, and the same request without
   limits completes and passes equivalence. *)

open Helpers
module Gov = Dp_gov.Gov
module Diag = Dp_diag.Diag
module C = Dp_cache
module Netlist = Dp_netlist.Netlist

(* ------------------------------------------------------------------ *)
(* Scratch stores *)

let fresh_dir tag =
  let path = Filename.temp_file ("dpsyn-" ^ tag) "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let dpc_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".dpc")
    (Array.to_list (Sys.readdir dir))

(* The lightest crypto-catalog member: a real Montgomery-step shape, but
   cheap enough to synthesize many times in a unit test. *)
let design = Dp_designs.Crypto.montgomery_step

let request_of (d : Dp_designs.Design.t) =
  C.Serve.request ~width:(Some d.width) d.env d.expr

(* [Serve.run] converts a mid-synthesis governor trip into [Error]
   (through [Synth.run_res]), but [with_ambient]'s exit re-raises the
   sticky diagnostic so a cancellation is never lost — accept either
   shape and return the diagnostic. *)
let run_governed gov ~store req =
  match Gov.with_ambient gov (fun () -> C.Serve.run ~store req) with
  | Ok _ -> None
  | Error d -> Some d
  | exception Diag.E d -> Some d

(* ------------------------------------------------------------------ *)
(* Retry semantics of the diagnostic family *)

let code_classification () =
  List.iter
    (fun c -> checkb (c ^ " is a cancel code") true (Gov.is_cancel_code c))
    [ "DP-CANCEL001"; "DP-CANCEL002"; "DP-CANCEL003"; "DP-BUDGET-MEM" ];
  List.iter
    (fun c -> checkb (c ^ " is not a cancel code") false (Gov.is_cancel_code c))
    [ "DP-BUDGET003"; "DP-SRV-TOOBIG"; "DP-ENV003" ];
  List.iter
    (fun c -> checkb (c ^ " retryable") true (Gov.retryable c))
    [ "DP-CANCEL001"; "DP-CANCEL002"; "DP-BUDGET-MEM" ];
  (* the request itself exceeds the budget: retrying cannot help *)
  checkb "DP-CANCEL003 not retryable" false (Gov.retryable "DP-CANCEL003")

(* ------------------------------------------------------------------ *)
(* A fault aimed at each checkpoint class trips exactly there, and the
   abort leaves no partial disk-cache entry. *)

let site_diag site d =
  check Alcotest.string "code" "DP-CANCEL002" d.Diag.code;
  check Alcotest.string "site context" (Gov.site_name site)
    (Option.value (List.assoc_opt "site" d.Diag.context) ~default:"?")

(* Sites polled inside the synthesis flow itself. *)
let fault_in_flow_sites () =
  List.iter
    (fun site ->
      let dir = fresh_dir "gov-site" in
      let store = C.Store.create ~dir () in
      let gov = Gov.create ~poll_every:1 ~fault:(fun s _ -> s = site) () in
      (match run_governed gov ~store (request_of design) with
      | None ->
        Alcotest.failf "site %s: synthesis completed under an injected fault"
          (Gov.site_name site)
      | Some d -> site_diag site d);
      (* no torn state: nothing was published to the disk cache *)
      checkb "no partial cache entry" true (dpc_files dir = []);
      checki "no stores counted" 0 (C.Store.stats store).C.Store.stores;
      (* stickiness: the same governor keeps refusing with the same code *)
      match run_governed gov ~store (request_of design) with
      | Some d -> check Alcotest.string "sticky code" "DP-CANCEL002" d.Diag.code
      | None -> Alcotest.fail "tripped governor allowed a second run")
    [ Gov.Lower; Gov.Reduce; Gov.Netlist ]

(* Sites polled by the analysis passes over a finished netlist: build
   clean (the fault never matches during synthesis), then aim the pass
   at the netlist's captured governor. *)
let fault_in_analysis_sites () =
  let build site =
    let gov = Gov.create ~poll_every:1 ~fault:(fun s _ -> s = site) () in
    let r =
      Gov.with_ambient gov (fun () ->
          Dp_flow.Synth.run ~width:design.width Dp_flow.Strategy.Fa_aot
            design.env design.expr)
    in
    (gov, r)
  in
  let expect site f =
    match f () with
    | _ -> Alcotest.failf "site %s: pass completed under an injected fault"
             (Gov.site_name site)
    | exception Diag.E d -> site_diag site d
  in
  let _, r = build Gov.Sta in
  expect Gov.Sta (fun () -> Dp_timing.Sta.arrivals r.netlist);
  let _, r = build Gov.Prob in
  expect Gov.Prob (fun () -> Dp_power.Prob.probabilities r.netlist);
  let _, r = build Gov.Sim in
  expect Gov.Sim (fun () ->
      Dp_sim.Equiv.check_random ~trials:4 r.netlist design.expr
        ~output:r.output ~width:r.width)

(* ------------------------------------------------------------------ *)
(* A mid-loop abort leaves the partial netlist structurally sound:
   every published cell is complete, so the lint error sweep is clean. *)

let abort_leaves_lint_clean_netlist () =
  let gov = Gov.create ~poll_every:1 ~fault:(fun s _ -> s = Gov.Reduce) () in
  let nl =
    Gov.with_ambient gov (fun () -> Netlist.create ~tech:Dp_tech.Tech.lcb_like)
  in
  let matrix =
    Dp_bitmatrix.Lower.lower nl design.env design.expr ~width:design.width
  in
  (match Dp_core.Fa_aot.allocate nl matrix with
  | _ -> Alcotest.fail "reduction completed under an injected fault"
  | exception Diag.E d -> site_diag Gov.Reduce d);
  checkb "partial netlist has error-severity lint findings" true
    (Dp_verify.Lint.errors (Dp_verify.Lint.run nl) = [])

(* ------------------------------------------------------------------ *)
(* Acceptance: a crypto synthesis under an expired deadline aborts
   within two checkpoint intervals; the same request without limits
   completes, passes equivalence, and a retry is byte-identical. *)

let deadline_abort_then_clean_retry () =
  let dir = fresh_dir "gov-deadline" in
  let store = C.Store.create ~dir () in
  let gov = Gov.create ~deadline_s:0.0 () in
  (match run_governed gov ~store (request_of design) with
  | Some d ->
    check Alcotest.string "code" "DP-CANCEL001" d.Diag.code;
    checkb "retryable" true (Gov.retryable d.Diag.code)
  | None -> Alcotest.fail "expired deadline did not abort");
  checkb "aborted within 2 checkpoint intervals" true (Gov.polls gov <= 2);
  checkb "no partial cache entry" true (dpc_files dir = []);
  (* the same request, same store, no governor: completes cleanly *)
  let o1 =
    match C.Serve.run ~store (request_of design) with
    | Ok o -> o
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  checkb "fresh synthesis" false o1.cached;
  (* equivalence against the catalog expression *)
  (match
     Dp_sim.Equiv.check_random ~trials:64 o1.result.netlist design.expr
       ~output:o1.result.output ~width:o1.result.width
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "equivalence: %a" Dp_sim.Equiv.pp_mismatch m);
  (* byte-identity: a store never touched by the aborted run agrees *)
  let dir2 = fresh_dir "gov-clean" in
  let o2 =
    match C.Serve.run ~store:(C.Store.create ~dir:dir2 ()) (request_of design) with
    | Ok o -> o
    | Error d -> Alcotest.fail (Diag.to_string d)
  in
  check Alcotest.string "digest identical" o1.digest o2.digest;
  check Alcotest.string "verilog byte-identical" o1.verilog o2.verilog;
  (* and the post-abort store serves the entry it cached *)
  match C.Serve.run ~store (request_of design) with
  | Ok o3 ->
    checkb "cached" true o3.cached;
    check Alcotest.string "cache hit byte-identical" o1.verilog o3.verilog
  | Error d -> Alcotest.fail (Diag.to_string d)

(* The sum-of-products expansion polls too: distributing
   (a+...+h)^17 over eight one-bit operands runs for seconds before
   lowering builds a cell, so only a checkpoint inside the expansion
   stops it on time. *)
let deadline_bounds_sop_expansion () =
  let env =
    List.fold_left
      (fun env v -> Dp_expr.Env.add_uniform v ~width:1 env)
      Dp_expr.Env.empty [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ]
  in
  let req =
    C.Serve.request ~width:(Some 8) env
      (Dp_expr.Parse.expr "(a+b+c+d+e+f+g+h)^17")
  in
  let gov = Gov.create ~deadline_s:0.2 () in
  let t0 = Unix.gettimeofday () in
  (match run_governed gov ~store:(C.Store.create ()) req with
  | Some d ->
    check Alcotest.string "code" "DP-CANCEL001" d.Diag.code;
    check Alcotest.string "site" "lower"
      (Option.value (List.assoc_opt "site" d.Diag.context) ~default:"?")
  | None -> Alcotest.fail "the expansion outlived a 0.2 s deadline");
  checkb "aborted within 1 s" true (Unix.gettimeofday () -. t0 < 1.0)

let memory_watermark_abort () =
  let dir = fresh_dir "gov-mem" in
  let store = C.Store.create ~dir () in
  let gov = Gov.create ~max_heap_words:1 ~poll_every:1 () in
  (match run_governed gov ~store (request_of design) with
  | Some d ->
    check Alcotest.string "code" "DP-BUDGET-MEM" d.Diag.code;
    checkb "retryable" true (Gov.retryable d.Diag.code)
  | None -> Alcotest.fail "one-word watermark did not abort");
  checkb "no partial cache entry" true (dpc_files dir = [])

let cell_budget_abort_mid_loop () =
  let gov = Gov.create ~max_cells:64 ~poll_every:1 () in
  match run_governed gov ~store:(C.Store.create ()) (request_of design) with
  | Some d ->
    check Alcotest.string "code" "DP-CANCEL003" d.Diag.code;
    checkb "not retryable" false (Gov.retryable d.Diag.code)
  | None -> Alcotest.fail "64-cell budget did not abort a crypto design"

(* ------------------------------------------------------------------ *)
(* Cross-thread cancellation is sticky and never lost, and an untripped
   governor never retracts a completed result. *)

let external_cancel_never_lost () =
  let gov = Gov.create () in
  Gov.cancel ~reason:"operator abort" gov;
  (match Gov.with_ambient gov (fun () -> 42) with
  | _ -> Alcotest.fail "cancelled governor returned a result"
  | exception Diag.E d ->
    check Alcotest.string "code" "DP-CANCEL002" d.Diag.code);
  (* idempotent: the first diagnostic wins *)
  Gov.cancel ~reason:"second caller" gov;
  (match Gov.cancelled gov with
  | Some d ->
    check Alcotest.string "first reason wins" "operator abort"
      (Option.value (List.assoc_opt "reason" d.Diag.context) ~default:"?")
  | None -> Alcotest.fail "sticky flag lost");
  (* an untripped governor is invisible *)
  checki "clean governor passes results through" 7
    (Gov.with_ambient (Gov.create ()) (fun () -> 7))

let suite =
  [
    case "gov: cancel-code classification and retryability" code_classification;
    case "gov: fault trips at each in-flow checkpoint class, no torn cache"
      fault_in_flow_sites;
    case "gov: fault trips in STA/probability/simulation passes"
      fault_in_analysis_sites;
    case "gov: mid-loop abort leaves a lint-clean partial netlist"
      abort_leaves_lint_clean_netlist;
    case "gov: crypto deadline abort within 2 intervals, byte-identical retry"
      deadline_abort_then_clean_retry;
    case "gov: deadline stops the SOP expansion at site lower"
      deadline_bounds_sop_expansion;
    case "gov: memory watermark aborts with DP-BUDGET-MEM" memory_watermark_abort;
    case "gov: cell budget aborts mid-loop with DP-CANCEL003"
      cell_budget_abort_mid_loop;
    case "gov: external cancel is sticky and never lost" external_cancel_never_lost;
  ]
