(* The serving layer: JSON wire format, protocol parsing, the in-process
   server over a real Unix-domain socket, the cross-process store, and
   the sharded front (router, shard pool) with its chaos soaks. *)

open Helpers
module S = Dp_server
module Json = Dp_server.Json
module P = Dp_server.Protocol
module Fz = Dp_fuzz

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_round_trips () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error msg -> Alcotest.failf "%s: %s" text msg
      | Ok v -> check Alcotest.string text text (Json.to_string v))
    [
      "null";
      "true";
      "[1,2,3]";
      "{\"a\":1,\"b\":[true,null],\"c\":\"x\\ny\"}";
      "{\"nested\":{\"deep\":[{\"k\":-12}]}}";
      "3.25";
      "\"quote \\\" backslash \\\\\"";
    ]

let json_rejects_malformed () =
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok v -> Alcotest.failf "%s parsed as %s" text (Json.to_string v)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\"}"; "tru"; "1 2"; "\"unterminated" ]

let json_floats_deterministic () =
  check Alcotest.string "integral float" "1.0" (Json.to_string (Json.Float 1.0));
  check Alcotest.string "fraction" "0.1" (Json.to_string (Json.Float 0.1));
  (* shortest form that round-trips exactly *)
  let f = 22.145835939275589 in
  match Json.of_string (Json.to_string (Json.Float f)) with
  | Ok (Json.Float f') -> checkb "float round-trips exactly" true (f = f')
  | other ->
    Alcotest.failf "unexpected %s"
      (match other with Ok v -> Json.to_string v | Error m -> m)

(* ------------------------------------------------------------------ *)
(* Protocol *)

let proto_parses_synth () =
  let line =
    {|{"id":7,"op":"synth","expr":"x*y + z","vars":[{"name":"x","width":8},{"name":"y","width":8,"signed":true,"arrival":1.5},{"name":"z","width":2,"prob":[0.1,0.9]}],"strategy":"dadda","adder":"ripple","width":2}|}
  in
  let line = String.concat "" [ line ] in
  match P.request_of_line line with
  | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)
  | Ok { id; req } -> (
    checkb "id echoed" true (id = Json.Int 7);
    match req with
    | P.Synth p ->
      check Alcotest.string "expr" "x*y + z" p.expr_text;
      checki "vars" 3 (List.length p.vars);
      let y = List.nth p.vars 1 in
      checkb "signed" true y.vsigned;
      checkb "uniform arrival broadcast" true
        (Array.for_all (fun t -> t = 1.5) y.varrival);
      let z = List.nth p.vars 2 in
      checkb "per-bit prob array" true (z.vprob = [| 0.1; 0.9 |]);
      checkb "strategy" true (p.strategy = Dp_flow.Strategy.Dadda);
      checkb "adder" true (p.adder = Dp_adders.Adder.Ripple);
      checkb "width" true (p.width = Some 2)
    | _ -> Alcotest.fail "expected Synth")

let proto_error_codes () =
  let code line =
    match P.request_of_line line with
    | Ok _ -> Alcotest.failf "%s parsed" line
    | Error d -> d.Dp_diag.Diag.code
  in
  check Alcotest.string "not JSON" "DP-PROTO001" (code "this is not json");
  check Alcotest.string "no op" "DP-PROTO002" (code {|{"id":1}|});
  check Alcotest.string "unknown op" "DP-PROTO002" (code {|{"op":"frobnicate"}|});
  check Alcotest.string "missing expr" "DP-PROTO002" (code {|{"op":"synth"}|});
  check Alcotest.string "bad expr" "DP-PROTO002"
    (code {|{"op":"synth","expr":"x +"}|});
  check Alcotest.string "bad strategy" "DP-PROTO002"
    (code {|{"op":"synth","expr":"x","strategy":"nope","vars":[{"name":"x","width":4}]}|});
  check Alcotest.string "bad prob arity" "DP-PROTO002"
    (code
       {|{"op":"synth","expr":"x","vars":[{"name":"x","width":4,"prob":[0.5]}]}|})

let proto_request_round_trips () =
  let p =
    match
      P.synth_params
        ~vars:
          [
            P.var_spec "x" ~width:8;
            P.var_spec ~signed:true ~arrival:(Array.make 4 2.5) "y" ~width:4;
          ]
        ~width:(Some 10) ~strategy:Dp_flow.Strategy.Csa_opt "x*y - 3"
    with
    | Ok p -> p
    | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)
  in
  let envelope = { P.id = Json.Int 3; req = P.Synth p } in
  match P.request_of_json (Json.of_string (Json.to_string (P.request_to_json envelope)) |> Result.get_ok) with
  | Error d -> Alcotest.fail (Dp_diag.Diag.to_string d)
  | Ok { id; req } -> (
    checkb "id" true (id = Json.Int 3);
    match req with
    | P.Synth p' ->
      check Alcotest.string "expr" p.expr_text p'.expr_text;
      checkb "width" true (p'.width = Some 10);
      checkb "strategy" true (p'.strategy = Dp_flow.Strategy.Csa_opt);
      let y = List.nth p'.vars 1 in
      checkb "signed survives" true y.vsigned;
      checkb "arrival survives" true (y.varrival = Array.make 4 2.5)
    | _ -> Alcotest.fail "expected Synth")

(* ------------------------------------------------------------------ *)
(* In-process server over a real socket *)

let with_server ?(configure = fun c -> c) f =
  let socket = fresh_socket () in
  let config = configure (S.Server.default_config ~socket_path:socket) in
  let t = S.Server.start config in
  Fun.protect
    ~finally:(fun () ->
      S.Server.request_shutdown t;
      S.Server.wait t)
    (fun () -> f socket t)

let rpc_res socket request = S.Client.once ~socket request

let get_str path j = Option.bind (get path j) Json.to_str
let get_int path j = Option.bind (get path j) Json.to_int

let server_synth_and_cache () =
  with_server @@ fun socket _ ->
  let r1 = rpc socket (synth_json ()) in
  checkb "ok" true (get_bool [ "ok" ] r1 = Some true);
  checkb "id echoed" true (get_int [ "id" ] r1 = Some 1);
  checkb "fresh" true (get_bool [ "cached" ] r1 = Some false);
  checkb "schema" true
    (get_str [ "result"; "schema" ] r1 = Some "dpsyn-result/1");
  checkb "digest present" true
    (match get_str [ "result"; "digest" ] r1 with
    | Some d -> String.length d = 32
    | None -> false);
  (* repeat: served from cache, record byte-identical *)
  let r2 = rpc socket (synth_json ()) in
  checkb "cached" true (get_bool [ "cached" ] r2 = Some true);
  check Alcotest.string "records byte-identical"
    (Json.to_string (Option.get (get [ "result" ] r1)))
    (Json.to_string (Option.get (get [ "result" ] r2)));
  (* a canonical reordering also hits *)
  let r3 = rpc socket (synth_json ~expr:"z + y*x" ()) in
  checkb "reordering hits" true (get_bool [ "cached" ] r3 = Some true);
  check Alcotest.string "same digest"
    (Option.get (get_str [ "result"; "digest" ] r1))
    (Option.get (get_str [ "result"; "digest" ] r3))

let server_batch_order_and_errors () =
  with_server @@ fun socket _ ->
  let elem expr vars =
    Json.Obj
      [
        ("expr", Json.Str expr);
        ( "vars",
          Json.List
            (List.map
               (fun n ->
                 Json.Obj [ ("name", Json.Str n); ("width", Json.Int 6) ])
               vars) );
      ]
  in
  let req =
    Json.Obj
      [
        ("id", Json.Int 9);
        ("op", Json.Str "batch");
        ( "requests",
          Json.List
            [
              elem "a + b" [ "a"; "b" ];
              elem "a * nope" [ "a" ] (* unbound: must fail in place *);
              elem "a - b" [ "a"; "b" ];
            ] );
      ]
  in
  let r = rpc socket req in
  checkb "envelope ok" true (get_bool [ "ok" ] r = Some true);
  match Option.bind (get [ "results" ] r) Json.to_list with
  | Some [ e1; e2; e3 ] ->
    checkb "first ok" true (get_bool [ "ok" ] e1 = Some true);
    check Alcotest.string "order preserved" "a + b"
      (Option.get (get_str [ "result"; "expr" ] e1));
    checkb "second failed" true (get_bool [ "ok" ] e2 = Some false);
    check Alcotest.string "typed diagnostic" "DP-ENV003"
      (Option.get (get_str [ "error"; "code" ] e2));
    checkb "third ok" true (get_bool [ "ok" ] e3 = Some true);
    check Alcotest.string "order preserved" "a - b"
      (Option.get (get_str [ "result"; "expr" ] e3))
  | _ -> Alcotest.fail "expected exactly 3 batch elements"

let server_survives_bad_input () =
  with_server @@ fun socket _ ->
  match S.Client.connect socket with
  | Error d -> faild d
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> S.Client.close c)
      (fun () ->
        (match S.Client.send_line c "garbage that is not json" with
        | Error d -> faild d
        | Ok () -> ());
        (match S.Client.recv_response c with
        | Error _ -> Alcotest.fail "connection died on bad input"
        | Ok j ->
          checkb "error envelope" true (get_bool [ "ok" ] j = Some false);
          check Alcotest.string "code" "DP-PROTO001"
            (Option.get (get_str [ "error"; "code" ] j)));
        (* a field-validation failure still echoes the request id *)
        (match S.Client.send_line c {|{"id":9,"op":"nope"}|} with
        | Error d -> faild d
        | Ok () -> ());
        (match S.Client.recv_response c with
        | Error _ -> Alcotest.fail "connection died on bad op"
        | Ok j ->
          checkb "id recovered" true (get_int [ "id" ] j = Some 9);
          check Alcotest.string "code" "DP-PROTO002"
            (Option.get (get_str [ "error"; "code" ] j)));
        (* the same connection still serves a valid request *)
        match S.Client.rpc c (synth_json ()) with
        | Error d -> faild d
        | Ok r -> checkb "still usable" true (get_bool [ "ok" ] r = Some true))

(* An arrival the CLI refuses is refused on the wire too: 1e999 parses
   to infinity, which the environment rejects as DP-ENV002. *)
let server_rejects_infinite_arrival () =
  with_server @@ fun socket _ ->
  match S.Client.connect socket with
  | Error d -> faild d
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> S.Client.close c)
      (fun () ->
        (match
           S.Client.send_line c
             {|{"id":5,"op":"synth","expr":"x + y","vars":[{"name":"x","width":4,"arrival":1e999},{"name":"y","width":4}]}|}
         with
        | Error d -> faild d
        | Ok () -> ());
        match S.Client.recv_response c with
        | Error d -> faild d
        | Ok j ->
          checkb "refused" true (get_bool [ "ok" ] j = Some false);
          check Alcotest.string "code" "DP-ENV002"
            (Option.get (get_str [ "error"; "code" ] j)))

let server_stats () =
  with_server @@ fun socket _ ->
  ignore (rpc socket (synth_json ()));
  ignore (rpc socket (synth_json ()));
  let r = rpc socket (Json.Obj [ ("id", Json.Int 2); ("op", Json.Str "stats") ]) in
  checkb "ok" true (get_bool [ "ok" ] r = Some true);
  checkb "served" true (get_int [ "stats"; "served" ] r = Some 2);
  checkb "cache hit counted" true
    (get_int [ "stats"; "cache"; "hits" ] r = Some 1);
  checkb "cache miss counted" true
    (get_int [ "stats"; "cache"; "misses" ] r = Some 1);
  match Option.bind (get [ "stats"; "latency_ms" ] r) Json.to_list with
  | Some buckets ->
    let total =
      List.fold_left
        (fun acc b -> acc + Option.value (get_int [ "count" ] b) ~default:0)
        0 buckets
    in
    checki "every request lands in a latency bucket" 2 total
  | None -> Alcotest.fail "missing latency histogram"

let server_enforces_cell_budget () =
  (* max_cells is deterministic (unlike wall-clock), so the budget error
     path over the wire is testable without flakiness *)
  let configure c =
    { c with S.Server.budget = { Fz.Budget.unlimited with max_cells = 40 } }
  in
  with_server ~configure @@ fun socket _ ->
  let r = rpc socket (synth_json ~expr:"x*y + z" ()) in
  checkb "rejected" true (get_bool [ "ok" ] r = Some false);
  check Alcotest.string "code" "DP-CANCEL003"
    (Option.get (get_str [ "error"; "code" ] r));
  (* a small request on the same server still fits the budget *)
  let ok =
    rpc socket
      (Json.Obj
         [
           ("id", Json.Int 2);
           ("op", Json.Str "synth");
           ("expr", Json.Str "x + 1");
           ( "vars",
             Json.List [ Json.Obj [ ("name", Json.Str "x"); ("width", Json.Int 2) ] ] );
         ])
  in
  checkb "small request survives" true (get_bool [ "ok" ] ok = Some true)

let server_shutdown_op () =
  let socket = fresh_socket () in
  let t = S.Server.start (S.Server.default_config ~socket_path:socket) in
  let r = rpc socket (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "shutdown") ]) in
  checkb "ok" true (get_bool [ "ok" ] r = Some true);
  (* wait must return: the accept loop and the workers all exit *)
  S.Server.wait t;
  checkb "socket file removed" false (Sys.file_exists socket)

(* ------------------------------------------------------------------ *)
(* Supervision, deadlines, chaos *)

(* With a single fault class the chaos schedule is fully deterministic:
   each sequential request consumes one worker-site tick and one
   respond-site tick, so [every = 3] fires at ticks 3, 6, 9... — the 2nd
   request's worker tick, the 3rd request's respond tick (filtered for
   worker-only faults), the 5th request's worker tick, and so on. *)
let chaos_only ?(every = 3) fault =
  { S.Chaos.seed = 1; every; slow_s = 0.05; faults = [ fault ] }

let tiny_backoff =
  {
    S.Supervisor.default_policy with
    backoff_base_s = 0.001;
    backoff_max_s = 0.01;
  }

let server_crash_restart_and_dump () =
  let crash_dir = fresh_dir "crash" in
  let configure c =
    {
      c with
      S.Server.chaos = Some (chaos_only S.Chaos.Worker_panic);
      crash_dir = Some crash_dir;
      supervisor = { tiny_backoff with max_crashes = 100 };
    }
  in
  with_server ~configure @@ fun socket t ->
  let r1 = rpc socket (synth_json ~id:1 ()) in
  checkb "1st ok" true (get_bool [ "ok" ] r1 = Some true);
  (* 2nd request hits the worker-site injection: typed crash, not a hang *)
  let r2 = rpc socket (synth_json ~id:2 ~expr:"x + y" ()) in
  checkb "2nd failed" true (get_bool [ "ok" ] r2 = Some false);
  check Alcotest.string "crash code" "DP-SRV-CRASH"
    (Option.get (get_str [ "error"; "code" ] r2));
  (* the worker restarted: the same server keeps serving *)
  let r3 = rpc socket (synth_json ~id:3 ()) in
  checkb "3rd ok after restart" true (get_bool [ "ok" ] r3 = Some true);
  (* the crash left a parseable reproducer in the corpus *)
  (match Fz.Corpus.load_dir crash_dir with
  | Error d -> faild d
  | Ok entries ->
    checki "one crash dump" 1 (List.length entries);
    let _, e = List.hd entries in
    checkb "dump tagged with the crash code" true
      (e.Fz.Corpus.diag_code = Some "DP-SRV-CRASH");
    check Alcotest.string "dump pins the expression" "x + y"
      (match e.Fz.Corpus.case.Fz.Case.ports with
      | [ (_, expr, _) ] -> Dp_expr.Ast.to_string expr
      | _ -> "?"));
  let stats = S.Server.stats_json t in
  checkb "crash counted" true
    (get_int [ "supervisor"; "crashes" ] stats = Some 1);
  checkb "restart counted" true
    (get_int [ "supervisor"; "restarts" ] stats = Some 1);
  checkb "dump counted" true
    (get_int [ "supervisor"; "crash_dumps" ] stats = Some 1)

let server_breaker_opens_under_crash_storm () =
  (* every worker tick panics: two crashes exceed [max_crashes = 1] and
     open the breaker, so the 3rd request is rejected at admission *)
  let configure c =
    {
      c with
      S.Server.chaos = Some (chaos_only ~every:1 S.Chaos.Worker_panic);
      supervisor = { tiny_backoff with max_crashes = 1; cooldown_s = 30.0 };
    }
  in
  with_server ~configure @@ fun socket t ->
  let code r = Option.get (get_str [ "error"; "code" ] r) in
  check Alcotest.string "1st crash" "DP-SRV-CRASH"
    (code (rpc socket (synth_json ~id:1 ())));
  check Alcotest.string "2nd crash" "DP-SRV-CRASH"
    (code (rpc socket (synth_json ~id:2 ())));
  check Alcotest.string "breaker open" "DP-SRV-OVERLOAD"
    (code (rpc socket (synth_json ~id:3 ())));
  let stats = S.Server.stats_json t in
  check Alcotest.string "breaker state" "open"
    (Option.get (get_str [ "supervisor"; "breaker" ] stats));
  checkb "rejection counted" true
    (get_int [ "supervisor"; "rejected" ] stats = Some 1)

let breaker_half_open_cycle () =
  (* the state machine itself, without server scheduling noise *)
  let policy =
    {
      S.Supervisor.default_policy with
      max_crashes = 2;
      cooldown_s = 0.05;
      backoff_base_s = 0.001;
      backoff_max_s = 0.01;
    }
  in
  let sup = S.Supervisor.create ~policy ~log:ignore () in
  let admit () = S.Supervisor.admit sup in
  checkb "closed admits" true (admit () = Ok false);
  for _ = 1 to 3 do
    ignore (S.Supervisor.record_crash sup ~trial:false)
  done;
  checkb "opens past the intensity limit" true
    (S.Supervisor.breaker_state sup = S.Supervisor.Open);
  (match admit () with
  | Error d ->
    check Alcotest.string "overload code" "DP-SRV-OVERLOAD" d.Dp_diag.Diag.code
  | Ok _ -> Alcotest.fail "open breaker admitted work");
  Thread.delay 0.08;
  (* cooldown elapsed: exactly one probe goes through *)
  checkb "half-open admits one trial" true (admit () = Ok true);
  checkb "half-open state" true
    (S.Supervisor.breaker_state sup = S.Supervisor.Half_open);
  checkb "second probe rejected while trial in flight" true
    (Result.is_error (admit ()));
  (* trial crash re-opens; next cooldown's trial success closes *)
  ignore (S.Supervisor.record_crash sup ~trial:true);
  checkb "trial crash re-opens" true
    (S.Supervisor.breaker_state sup = S.Supervisor.Open);
  Thread.delay 0.08;
  checkb "re-probes after second cooldown" true (admit () = Ok true);
  S.Supervisor.record_success sup ~trial:true;
  checkb "trial success closes" true
    (S.Supervisor.breaker_state sup = S.Supervisor.Closed);
  checkb "closed again admits normally" true (admit () = Ok false)

let server_deadline_expires_in_queue () =
  (* one worker, stalled by chaos on every job: a queued request with a
     small deadline must fail fast with DP-SRV-DEADLINE, not synthesize *)
  let configure c =
    {
      c with
      S.Server.workers = 1;
      chaos =
        Some { S.Chaos.seed = 1; every = 1; slow_s = 0.4; faults = [ S.Chaos.Slow_worker ] };
    }
  in
  with_server ~configure @@ fun socket _ ->
  let blocker =
    Thread.create (fun () -> ignore (rpc_res socket (synth_json ~id:1 ()))) ()
  in
  Thread.delay 0.1;
  (* the worker is mid-stall; this request waits in the queue past its
     100 ms deadline *)
  let r = rpc socket (synth_json ~id:2 ~deadline_ms:100.0 ()) in
  Thread.join blocker;
  checkb "failed" true (get_bool [ "ok" ] r = Some false);
  check Alcotest.string "deadline code" "DP-SRV-DEADLINE"
    (Option.get (get_str [ "error"; "code" ] r))

let server_torn_response_is_typed () =
  (* [every = 4] with sequential requests tears every other respond tick:
     sanity rpc (ticks 1-2), retrying call (attempt ticks 3-4 torn, 5-6
     ok), direct rpc (ticks 7-8 torn -> DP-PROTO003) *)
  let configure c =
    { c with S.Server.chaos = Some (chaos_only ~every:4 S.Chaos.Truncate_response) }
  in
  with_server ~configure @@ fun socket _ ->
  let r1 = rpc socket (synth_json ~id:1 ()) in
  checkb "sanity ok" true (get_bool [ "ok" ] r1 = Some true);
  (* the retrying client reconnects through the torn attempt *)
  let retry = { S.Client.default_retry with attempts = 3 } in
  (match S.Client.call ~retry ~socket (synth_json ~id:2 ()) with
  | Error d -> faild d
  | Ok r -> checkb "retry recovered" true (get_bool [ "ok" ] r = Some true));
  (* without retries, the tear surfaces as the typed truncation code *)
  match rpc_res socket (synth_json ~id:3 ()) with
  | Ok r -> Alcotest.failf "expected a torn response, got %s" (Json.to_string r)
  | Error d ->
    check Alcotest.string "truncation code" "DP-PROTO003" d.Dp_diag.Diag.code

let server_corrupt_cache_entry_is_a_miss () =
  let cache_dir = fresh_dir "cache" in
  let store = Dp_cache.Store.create ~capacity:8 ~dir:cache_dir () in
  let configure c = { c with S.Server.store = Some store } in
  with_server ~configure @@ fun socket t ->
  let r1 = rpc socket (synth_json ()) in
  checkb "seeded" true (get_bool [ "ok" ] r1 = Some true);
  let expected = Json.to_string (Option.get (get [ "result" ] r1)) in
  (* rot every on-disk entry, then force the next lookups through disk *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".dpc" then
        Out_channel.with_open_bin (Filename.concat cache_dir f) (fun oc ->
            Out_channel.output_string oc "rotten bytes"))
    (Sys.readdir cache_dir);
  Dp_cache.Store.invalidate_memory store;
  (* concurrent identical requests: every one must be served fresh and
     byte-identical — never the rotten entry, never a crash *)
  let results = Array.make 4 None in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Some (rpc_res socket (synth_json ())))
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun r ->
      match r with
      | Some (Ok r) ->
        checkb "ok under corruption" true (get_bool [ "ok" ] r = Some true);
        check Alcotest.string "record identical"
          expected
          (Json.to_string (Option.get (get [ "result" ] r)))
      | Some (Error d) -> faild d
      | None -> Alcotest.fail "thread never delivered")
    results;
  let stats = S.Server.stats_json t in
  checkb "corruption detected and counted" true
    (match get_int [ "cache"; "corrupt" ] stats with
    | Some n -> n >= 1
    | None -> false)

(* The JSON object of the one log line that starts with [prefix]. *)
let drain_json ~prefix lines =
  match List.filter (String.starts_with ~prefix) lines with
  | [ l ] -> (
    let n = String.length prefix in
    match Json.of_string (String.sub l n (String.length l - n)) with
    | Ok j -> j
    | Error msg -> Alcotest.failf "drain line %S: %s" l msg)
  | ls -> Alcotest.failf "%d log lines start with %S" (List.length ls) prefix

let server_sigterm_graceful () =
  let logged = ref [] in
  let log_lock = Mutex.create () in
  let configure c =
    {
      c with
      S.Server.handle_signals = true;
      log =
        (fun m -> Mutex.protect log_lock (fun () -> logged := m :: !logged));
    }
  in
  let socket = fresh_socket () in
  let t =
    S.Server.start (configure (S.Server.default_config ~socket_path:socket))
  in
  let r = rpc socket (synth_json ()) in
  checkb "served before the signal" true (get_bool [ "ok" ] r = Some true);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  (* the handler only wakes the accept loop; the drain happens there *)
  S.Server.wait t;
  checkb "socket removed" false (Sys.file_exists socket);
  let drained =
    drain_json ~prefix:"drained: " (Mutex.protect log_lock (fun () -> !logged))
  in
  checkb "served counted" true (get_int [ "served" ] drained = Some 1);
  match Option.bind (get [ "latency_ms" ] drained) Json.to_list with
  | Some buckets ->
    let total =
      List.fold_left
        (fun acc b -> acc + Option.value (get_int [ "count" ] b) ~default:0)
        0 buckets
    in
    checki "histogram flushed on drain" 1 total
  | None -> Alcotest.fail "no latency histogram in the drain line"

let soak_chaos_holds_invariants () =
  let config =
    {
      (soak_config ()) with
      S.Soak.workers = 2;
      chaos =
        Some { S.Chaos.default_config with seed = 7; every = 5; slow_s = 0.02 };
      cache_dir = Some (fresh_dir "soak-cache");
      crash_dir = Some (fresh_dir "soak-crash");
      clients = 3;
      requests_per_client = 12;
      seed = 7;
      deadline_ms = Some 4000.0;
    }
  in
  let report = S.Soak.run config in
  checki "all requests accounted for" 36 report.S.Soak.requests;
  checki "zero wrong answers" 0 report.S.Soak.wrong_answers;
  checki "zero protocol violations" 0 report.S.Soak.violations;
  checkb "soak passes" true (S.Soak.passed report);
  checkb "some requests succeeded" true (report.S.Soak.ok > 0);
  (* a single server's stats carry no shard or router section *)
  List.iter
    (fun (name, n) -> checki (name ^ " on a single server") 0 n)
    S.Soak.
      [
        ("shard_kills", report.shard_kills);
        ("shard_hangs", report.shard_hangs);
        ("shard_restarts", report.shard_restarts);
        ("shard_health_kills", report.shard_health_kills);
        ("router_kills", report.router_kills);
        ("router_restarts", report.router_restarts);
        ("replays", report.replays);
        ("shard_reattaches", report.shard_reattaches);
        ("hedges_fired", report.hedges_fired);
        ("hedge_wins", report.hedge_wins);
        ("diverges", report.diverges);
      ];
  checkb "no recovery time on a single server" true
    (report.S.Soak.recovery_ms = 0.0)

(* ------------------------------------------------------------------ *)
(* Liveness probe and EPIPE-safe writes *)

let server_ping_op () =
  with_server @@ fun socket _ ->
  let r = rpc socket (Json.Obj [ ("id", Json.Int 5); ("op", Json.Str "ping") ]) in
  checkb "ok" true (get_bool [ "ok" ] r = Some true);
  checkb "pong" true (get_bool [ "pong" ] r = Some true);
  checkb "id echoed" true (get_int [ "id" ] r = Some 5)

let lineio_epipe_is_typed () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  let big = String.make (1 lsl 20) 'x' in
  (* the kernel may buffer a write or two before the reset surfaces *)
  let rec go n =
    if n = 0 then Alcotest.fail "EPIPE never surfaced as a typed error"
    else
      match S.Lineio.write_line a big with
      | Ok () -> go (n - 1)
      | Error d ->
        check Alcotest.string "peer-gone code" "DP-PROTO004"
          d.Dp_diag.Diag.code
  in
  go 10;
  Unix.close a

(* A long line costs linear time: the reader scans each byte once and
   copies the line out once.  Re-copying the whole buffer after every
   4 KiB read allocated about 1,000 bytes per byte of an 8 MiB line.
   Once drained, the reader gives the grown buffer back: keeping it
   held 16 MiB for the connection's life. *)
let lineio_long_line_is_linear () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let n = 8 lsl 20 in
  let data = Bytes.make (n + 6) 'x' in
  Bytes.blit_string "\ntail\n" 0 data n 6;
  let writer =
    Thread.create
      (fun () ->
        ignore (Unix.write a data 0 (Bytes.length data));
        Unix.close a)
      ()
  in
  let reader = S.Lineio.create b in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let before = Gc.allocated_bytes () in
  let first = S.Lineio.read_line ~deadline reader in
  let per_byte = (Gc.allocated_bytes () -. before) /. float_of_int n in
  Thread.join writer;
  (match first with
  | S.Lineio.Line line ->
    checki "line length" n (String.length line);
    checkb "line bytes" true (String.for_all (Char.equal 'x') line)
  | S.Lineio.Eof | S.Lineio.Truncated _ -> Alcotest.fail "no long line");
  checkb "next line intact" true
    (S.Lineio.read_line ~deadline reader = S.Lineio.Line "tail");
  let kept = Obj.reachable_words (Obj.repr reader) in
  if kept > 16_384 then
    Alcotest.failf "the drained reader still holds %d words" kept;
  checkb "then EOF" true (S.Lineio.read_line ~deadline reader = S.Lineio.Eof);
  Unix.close b;
  if per_byte >= 16.0 then
    Alcotest.failf "reading one %d-byte line allocated %.0f bytes per byte" n
      per_byte

(* ------------------------------------------------------------------ *)
(* Cross-process store safety *)

(* A real key and synthesis result to store under it. *)
let store_fixture () =
  let env =
    Dp_expr.Env.empty
    |> Dp_expr.Env.add_uniform "x" ~width:6
    |> Dp_expr.Env.add_uniform "y" ~width:6
  in
  let expr = Dp_expr.Parse.expr "x*y + 3" in
  let key = Dp_cache.Key.make Dp_flow.Strategy.Fa_aot env expr in
  match Dp_cache.Serve.run (Dp_cache.Serve.request env expr) with
  | Error d -> faild d
  | Ok (o : Dp_cache.Serve.outcome) ->
    let entry tag =
      {
        Dp_cache.Store.fingerprint = Dp_cache.Key.fingerprint key;
        result = o.result;
        verilog = String.make 20000 tag;
      }
    in
    (key, entry)

let store_concurrent_writers_leave_one_whole_entry () =
  let dir = fresh_dir "store-xproc" in
  let key, entry = store_fixture () in
  let payload tag = String.make 20000 tag in
  let writer tag =
    match Unix.fork () with
    | 0 ->
      (* [_exit], never [exit]: Alcotest's at_exit must not run here *)
      (try
         let s = Dp_cache.Store.create ~capacity:4 ~dir () in
         for _ = 1 to 25 do
           Dp_cache.Store.add s key (entry tag)
         done;
         Unix._exit 0
       with _ -> Unix._exit 1)
    | pid -> pid
  in
  let pa = writer 'A' in
  let pb = writer 'B' in
  (* a reader racing both writers sees the old entry, the new entry, or
     nothing — never a torn one *)
  let whole v = v = payload 'A' || v = payload 'B' in
  for _ = 1 to 40 do
    let s = Dp_cache.Store.create ~capacity:4 ~dir () in
    (match Dp_cache.Store.find s key with
    | None -> ()
    | Some e ->
      checkb "raced read is whole" true (whole e.Dp_cache.Store.verilog);
      checki "raced read never counts corruption" 0
        (Dp_cache.Store.stats s).Dp_cache.Store.corrupt);
    Thread.delay 0.002
  done;
  let _, st_a = Unix.waitpid [] pa in
  let _, st_b = Unix.waitpid [] pb in
  checkb "writer A exited cleanly" true (st_a = Unix.WEXITED 0);
  checkb "writer B exited cleanly" true (st_b = Unix.WEXITED 0);
  (* exactly one whole, checksummed entry survives *)
  let s = Dp_cache.Store.create ~capacity:4 ~dir () in
  (match Dp_cache.Store.find s key with
  | Some e -> checkb "final entry is one writer's payload, whole" true
                (whole e.Dp_cache.Store.verilog)
  | None -> Alcotest.fail "entry lost after concurrent writes");
  checki "no corruption detected" 0
    (Dp_cache.Store.stats s).Dp_cache.Store.corrupt;
  let files = Sys.readdir dir |> Array.to_list in
  checki "exactly one entry file" 1
    (List.length (List.filter (fun f -> Filename.check_suffix f ".dpc") files));
  checkb "no leaked temp files" true
    (not (List.exists (fun f -> contains ~needle:".tmp." f) files))

let store_partial_write_degrades_to_miss () =
  let dir = fresh_dir "store-torn" in
  let key, entry = store_fixture () in
  let s = Dp_cache.Store.create ~capacity:4 ~dir () in
  Dp_cache.Store.add s key (entry 'A');
  let dpc =
    match
      Sys.readdir dir |> Array.to_list
      |> List.find_opt (fun f -> Filename.check_suffix f ".dpc")
    with
    | Some f -> Filename.concat dir f
    | None -> Alcotest.fail "entry never reached disk"
  in
  (* simulate a torn write published without the rename discipline *)
  let len = (Unix.stat dpc).Unix.st_size in
  Unix.truncate dpc (len / 2);
  let s2 = Dp_cache.Store.create ~capacity:4 ~dir () in
  checkb "partial entry is a miss" true (Dp_cache.Store.find s2 key = None);
  checkb "and is counted as corruption" true
    ((Dp_cache.Store.stats s2).Dp_cache.Store.corrupt >= 1)

(* ------------------------------------------------------------------ *)
(* Sharded serving: pool supervision, routing, failover *)

module SP = S.Shard_pool
module R = S.Router

let quick_sup =
  {
    S.Supervisor.max_crashes = 30;
    window_s = 5.0;
    cooldown_s = 0.2;
    backoff_base_s = 0.03;
    backoff_max_s = 0.1;
  }

let with_pool ?(shards = 2) ?(sup = quick_sup) f =
  let base = fresh_socket () in
  let cache_dir = fresh_dir "pool-cache" in
  let pool =
    SP.start
      {
        (SP.default_config ~shards
           ~socket_for:(fun i -> base ^ "." ^ string_of_int i)
           ~spawn:(shard_spawn ~cache_dir))
        with
        SP.health_period_s = 0.05;
        health_timeout_s = 0.4;
        health_failures = 2;
        startup_grace_s = 0.3;
        stable_s = 0.2;
        poll_period_s = 0.02;
        grace_s = 3.0;
        supervisor = sup;
        log = ignore;
      }
  in
  Fun.protect
    ~finally:(fun () -> SP.shutdown pool)
    (fun () ->
      checkb "pool came up" true (SP.wait_all_up ~timeout_s:20.0 pool);
      f base pool)

let with_sharded ?shards ?sup f =
  with_pool ?shards ?sup @@ fun base pool ->
  let rt =
    R.start
      {
        (R.default_config ~socket_path:base ~pool) with
        R.forward_timeout_s = 10.0;
        log = ignore;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      R.request_shutdown rt;
      R.wait rt)
    (fun () -> f base pool rt)

let wait_for ?(timeout_s = 15.0) ~msg pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then Alcotest.fail msg
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

(* Every response line is torn, the shutdown acknowledgement included:
   the client sees the tear, and the server must shut down all the
   same.  The socket file going away is the observable; the wait for
   it is bounded, so a server that keeps serving fails the test
   instead of hanging it. *)
let server_shutdown_survives_a_lost_ack () =
  let configure c =
    { c with S.Server.chaos = Some (chaos_only ~every:1 S.Chaos.Truncate_response) }
  in
  with_server ~configure @@ fun socket _ ->
  (match rpc_res socket (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "shutdown") ]) with
  | Ok r -> Alcotest.failf "expected a torn acknowledgement, got %s" (Json.to_string r)
  | Error d ->
    check Alcotest.string "truncation code" "DP-PROTO003" d.Dp_diag.Diag.code);
  wait_for ~timeout_s:5.0 ~msg:"the server kept serving after a lost shutdown ack"
    (fun () -> not (Sys.file_exists socket))

let home_params rt =
  match
    P.synth_params
      ~vars:
        [
          P.var_spec "x" ~width:8;
          P.var_spec "y" ~width:8;
          P.var_spec "z" ~width:8;
        ]
      "x*y + z"
  with
  | Ok p -> R.home_of rt p
  | Error d -> faild d

let router_failover_and_rejoin () =
  (* long backoff: a killed shard stays down long enough to observe the
     failover window deterministically *)
  let sup = { quick_sup with S.Supervisor.backoff_base_s = 0.5; backoff_max_s = 0.5 } in
  with_sharded ~sup @@ fun base pool rt ->
  let r1 = rpc base (synth_json ~id:1 ()) in
  checkb "served via home shard" true (get_bool [ "ok" ] r1 = Some true);
  let home = home_params rt in
  checkb "killed the home shard" true (SP.signal_shard pool home Sys.sigkill);
  (* during the backoff window the request must fail over, not fail *)
  let r2 = rpc base (synth_json ~id:2 ()) in
  checkb "served during downtime" true (get_bool [ "ok" ] r2 = Some true);
  check Alcotest.string "failover answer byte-identical"
    (Json.to_string (Option.get (get [ "result" ] r1)))
    (Json.to_string (Option.get (get [ "result" ] r2)));
  let failovers () =
    Option.value ~default:0 (get_int [ "router"; "failovers" ] (R.stats_json rt))
  in
  checkb "failover counted" true (failovers () >= 1);
  (* the shard restarts with backoff and rejoins routing *)
  wait_for ~msg:"killed shard never restarted" (fun () ->
      SP.is_up pool home && fst (SP.counters pool) >= 1);
  wait_for ~msg:"restarted shard never answered" (fun () ->
      match rpc_res base (synth_json ~id:3 ()) with
      | Ok r -> get_bool [ "ok" ] r = Some true
      | Error _ -> false);
  let before = failovers () in
  let r4 = rpc base (synth_json ~id:4 ()) in
  checkb "served after rejoin" true (get_bool [ "ok" ] r4 = Some true);
  checki "home shard serves again — no new failover" before (failovers ())

let router_all_shards_down_is_typed () =
  let sup =
    { quick_sup with S.Supervisor.backoff_base_s = 2.0; backoff_max_s = 2.0 }
  in
  with_sharded ~sup @@ fun base pool _rt ->
  ignore (SP.signal_shard pool 0 Sys.sigkill);
  ignore (SP.signal_shard pool 1 Sys.sigkill);
  (* give the monitor a beat to notice both deaths *)
  Thread.delay 0.2;
  let r = rpc base (synth_json ()) in
  checkb "typed failure" true (get_bool [ "ok" ] r = Some false);
  check Alcotest.string "retryable shard-down code" "DP-SRV-SHARD-DOWN"
    (Option.get (get_str [ "error"; "code" ] r))

let pool_health_kills_hung_shard () =
  with_pool ~shards:1 @@ fun _base pool ->
  (* age past the startup grace so failed probes score *)
  Thread.delay 0.4;
  checkb "stopped the shard" true (SP.signal_shard pool 0 Sys.sigstop);
  (* waitpid cannot see a stopped child; only the ping timeout can — the
     health check must SIGKILL it and the monitor must restart it *)
  wait_for ~msg:"hung shard never health-killed" (fun () ->
      snd (SP.counters pool) >= 1);
  checkb "restarted after the health kill" true
    (SP.wait_all_up ~timeout_s:20.0 pool)

(* A restarted shard is spawned from the pool's monitor thread, which
   blocks SIGTERM/SIGINT, and inherits that mask; the server claims both
   with its own sigwait thread, so a SIGTERM still drains it and it
   exits 0 (the monitor logs how each incarnation ended). *)
let pool_restarted_shard_exits_0_on_sigterm () =
  let cache_dir = fresh_dir "sigterm-cache" in
  let base = fresh_socket () in
  let log_lock = Mutex.create () and logged = ref [] in
  let pool =
    SP.start
      {
        (SP.default_config ~shards:1
           ~socket_for:(fun _ -> base ^ ".0")
           ~spawn:(shard_spawn ~cache_dir)) with
        SP.supervisor = quick_sup;
        poll_period_s = 0.02;
        log = (fun m -> Mutex.protect log_lock (fun () -> logged := m :: !logged));
      }
  in
  Fun.protect ~finally:(fun () -> SP.shutdown pool) @@ fun () ->
  let ended how =
    Mutex.protect log_lock (fun () ->
        List.exists (contains ~needle:("shard 0 " ^ how ^ ";")) !logged)
  in
  checkb "pool came up" true (SP.wait_all_up ~timeout_s:20.0 pool);
  checkb "killed the shard" true (SP.signal_shard pool 0 Sys.sigkill);
  wait_for ~msg:"killed shard never restarted" (fun () ->
      ended "killed by SIGKILL" && SP.is_up pool 0);
  checkb "the restarted shard answers" true (SP.wait_all_up ~timeout_s:20.0 pool);
  checkb "SIGTERMed the restarted shard" true (SP.signal_shard pool 0 Sys.sigterm);
  wait_for ~msg:"the restarted shard did not exit 0 on SIGTERM" (fun () -> ended "exited 0")

(* Every descriptor the front opens is close-on-exec: a shard the pool
   restarts while a router listens inherits neither the router's socket
   nor its self-pipe, so it holds as many descriptors as the shard
   started before the router.  A health ping holds a descriptor open
   for a moment, so the counts are compared until they settle. *)
let pool_restarted_shard_inherits_no_descriptors () =
  with_sharded @@ fun base pool _rt ->
  checkb "served through the front" true
    (get_bool [ "ok" ] (rpc base (synth_json ())) = Some true);
  checkb "killed shard 0" true (SP.signal_shard pool 0 Sys.sigkill);
  wait_for ~msg:"killed shard never restarted" (fun () ->
      fst (SP.counters pool) >= 1 && SP.is_up pool 0);
  checkb "the restarted shard answers" true (SP.wait_all_up ~timeout_s:20.0 pool);
  let fds shard =
    let detail =
      Option.get (Option.bind (get [ "detail" ] (SP.stats_json pool)) Json.to_list)
    in
    let pid = Option.get (get_int [ "pid" ] (List.nth detail shard)) in
    Array.length (Sys.readdir (Printf.sprintf "/proc/%d/fd" pid))
  in
  let rec settle tries =
    let restarted = fds 0 and first = fds 1 in
    if restarted = first then ()
    else if tries = 0 then
      Alcotest.failf
        "the restarted shard holds %d descriptors, the first-started one %d"
        restarted first
    else begin
      Thread.delay 0.02;
      settle (tries - 1)
    end
  in
  settle 100

let router_aggregates_stats () =
  with_sharded ~shards:3 @@ fun base _pool _rt ->
  let exprs = [ "x*y + z"; "x + y"; "x - z"; "y*z + x"; "x*z"; "y + z" ] in
  List.iteri
    (fun i e ->
      let r = rpc base (synth_json ~expr:e ~id:i ()) in
      checkb "ok" true (get_bool [ "ok" ] r = Some true))
    exprs;
  let r = rpc base (Json.Obj [ ("id", Json.Int 99); ("op", Json.Str "stats") ]) in
  checkb "ok" true (get_bool [ "ok" ] r = Some true);
  (* worker counters summed across all three shards *)
  checkb "served sums across shards" true
    (get_int [ "stats"; "served" ] r = Some (List.length exprs));
  checkb "every request routed by the front" true
    (get_int [ "stats"; "router"; "routed" ] r = Some (List.length exprs));
  checkb "no failovers on a healthy fleet" true
    (get_int [ "stats"; "router"; "failovers" ] r = Some 0);
  checkb "all shards reporting" true
    (get_int [ "stats"; "router"; "shards_reporting" ] r = Some 3);
  checkb "pool section present" true
    (get_int [ "stats"; "shard_pool"; "shards" ] r = Some 3);
  checkb "cache stores summed" true
    (get_int [ "stats"; "cache"; "stores" ] r = Some (List.length exprs));
  match Option.bind (get [ "stats"; "latency_ms" ] r) Json.to_list with
  | Some buckets ->
    let total =
      List.fold_left
        (fun acc b -> acc + Option.value (get_int [ "count" ] b) ~default:0)
        0 buckets
    in
    checki "latency histograms merge positionally" (List.length exprs) total
  | None -> Alcotest.fail "missing aggregated latency histogram"

(* The router front answers bad lines itself, exactly as a single
   server does, and keeps the connection. *)
let router_survives_bad_input () =
  with_sharded @@ fun base _pool _rt ->
  match S.Client.connect base with
  | Error d -> faild d
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> S.Client.close c)
      (fun () ->
        let exchange line =
          match S.Client.send_line c line with
          | Error d -> faild d
          | Ok () -> (
            match S.Client.recv_response c with
            | Ok j -> j
            | Error d -> faild d)
        in
        let j = exchange "garbage that is not json" in
        check Alcotest.string "code" "DP-PROTO001"
          (Option.get (get_str [ "error"; "code" ] j));
        let j = exchange {|{"id":9,"op":"nope"}|} in
        checkb "id recovered" true (get_int [ "id" ] j = Some 9);
        check Alcotest.string "code" "DP-PROTO002"
          (Option.get (get_str [ "error"; "code" ] j));
        match S.Client.rpc c (synth_json ()) with
        | Error d -> faild d
        | Ok r -> checkb "still usable" true (get_bool [ "ok" ] r = Some true))

let router_truncated_request_is_typed () =
  with_sharded @@ fun base _pool _rt ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX base);
  let half = {|{"id":1,"op":"synth","expr":"x*|} in
  ignore (Unix.write_substring fd half 0 (String.length half));
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  match
    S.Lineio.read_line
      ~deadline:(Unix.gettimeofday () +. 10.0)
      (S.Lineio.create fd)
  with
  | S.Lineio.Line line -> (
    match Json.of_string line with
    | Ok j ->
      checkb "error envelope" true (get_bool [ "ok" ] j = Some false);
      check Alcotest.string "truncation code" "DP-PROTO003"
        (Option.get (get_str [ "error"; "code" ] j))
    | Error msg -> Alcotest.failf "unparsable response %S: %s" line msg)
  | _ -> Alcotest.fail "no response to a truncated request"

let router_sigterm_graceful () =
  let logged = ref [] in
  let log_lock = Mutex.create () in
  with_pool @@ fun base pool ->
  let rt =
    R.start
      {
        (R.default_config ~socket_path:base ~pool) with
        R.forward_timeout_s = 10.0;
        handle_signals = true;
        log =
          (fun m -> Mutex.protect log_lock (fun () -> logged := m :: !logged));
      }
  in
  let r = rpc base (synth_json ()) in
  checkb "served before the signal" true (get_bool [ "ok" ] r = Some true);
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  R.wait rt;
  checkb "socket removed" false (Sys.file_exists base);
  checkb "both shards down" true
    ((not (SP.is_up pool 0)) && not (SP.is_up pool 1));
  let drained =
    drain_json ~prefix:"router drained: "
      (Mutex.protect log_lock (fun () -> !logged))
  in
  checkb "routed counted" true (get_int [ "router"; "routed" ] drained = Some 1);
  checkb "pool summary" true (get_int [ "shard_pool"; "shards" ] drained = Some 2)

(* A topology field the chosen topology would ignore is refused before
   anything starts: no socket is ever bound. *)
let soak_refuses_ignored_topology_fields () =
  let chaos = Some S.Chaos.default_config in
  List.iter
    (fun (label, configure) ->
      let config = configure (soak_config ()) in
      (match S.Soak.run config with
      | _ -> Alcotest.failf "%s: accepted" label
      | exception Invalid_argument _ -> ());
      checkb (label ^ ": no socket") false (Sys.file_exists config.S.Soak.socket_path))
    [
      ("hedge unsharded", fun c -> { c with S.Soak.hedge = true });
      ("shard_chaos unsharded", fun c -> { c with S.Soak.shard_chaos = chaos });
      ("journal unsharded", fun c -> { c with S.Soak.journal_dir = Some "j" });
      ("router_chaos unjournaled", fun c ->
        { c with S.Soak.shards = 2; router_chaos = chaos });
      ("shard_chaos journaled", fun c ->
        { c with S.Soak.shards = 2; journal_dir = Some "j"; shard_chaos = chaos });
      (* exec'd shards run only Chaos.faults at the default stall *)
      ("sharded chaos with a stall argv cannot carry", fun c ->
        { c with S.Soak.shards = 2; chaos = Some { S.Chaos.default_config with slow_s = 0.02 } });
      ("sharded chaos with faults argv cannot carry", fun c ->
        { c with
          S.Soak.shards = 2;
          chaos = Some { S.Chaos.default_config with faults = [ S.Chaos.Mem_squeeze ] } });
    ]

(* A shard fault after every 8th answered request: 8 faults over 64
   answers, a seeded mix of SIGKILLs and SIGSTOPs on seeded shards. *)
let soak_sharded_kill_chaos_holds_invariants () =
  let config =
    {
      (soak_config ()) with
      S.Soak.workers = 1;
      shards = 3;
      cache_dir = Some (fresh_dir "soak-shard-cache");
      clients = 4;
      requests_per_client = 16;
      seed = 11;
      shard_chaos =
        Some
          {
            S.Chaos.default_config with
            seed = 11;
            every = 8;
            faults = S.Chaos.shard_faults;
          };
    }
  in
  let report = S.Soak.run config in
  checki "all requests accounted for" 64 report.S.Soak.requests;
  checki "zero wrong answers" 0 report.S.Soak.wrong_answers;
  checki "zero protocol violations" 0 report.S.Soak.violations;
  checkb "soak passes" true (S.Soak.passed report);
  checkb "some requests succeeded" true (report.S.Soak.ok > 0);
  checkb "at least two kills landed" true (report.S.Soak.shard_kills >= 2);
  checkb "kills were followed by restarts" true
    (report.S.Soak.shard_restarts >= report.S.Soak.shard_kills - 1)

(* The report's hedge fields come from the router's [stats]: a hung
   home shard makes the router duplicate its requests to the next shard,
   and both answers must agree byte for byte.  A hang after every 50th
   answered request: with both shards stopped nothing answers until the
   health check reaps one, so a denser schedule mostly measures
   stalls. *)
let soak_hedged_hangs_hold_invariants () =
  let config =
    {
      (soak_config ()) with
      S.Soak.workers = 1;
      shards = 2;
      hedge = true;
      cache_dir = Some (fresh_dir "soak-hedge-cache");
      clients = 4;
      requests_per_client = 50;
      seed = 19;
      shard_chaos =
        Some
          {
            S.Chaos.default_config with
            seed = 19;
            every = 50;
            faults = [ S.Chaos.Hang_shard ];
          };
    }
  in
  let report = S.Soak.run config in
  checki "all requests accounted for" 200 report.S.Soak.requests;
  checki "zero wrong answers" 0 report.S.Soak.wrong_answers;
  checki "zero protocol violations" 0 report.S.Soak.violations;
  checki "zero divergences" 0 report.S.Soak.diverges;
  checkb "soak passes" true (S.Soak.passed report);
  checkb "hangs landed" true (report.S.Soak.shard_hangs >= 1);
  checkb "a hedge fired" true (report.S.Soak.hedges_fired >= 1)

(* Process, memory and network faults reach exec'd shards through their
   argv: the soak sees memory aborts, and still no wrong answer.  The
   shards' breaker never opens, so the panics do not shed the requests
   that would be squeezed. *)
let soak_sharded_mem_net_chaos_crosses_the_exec () =
  let config =
    {
      (soak_config ()) with
      S.Soak.workers = 2;
      shards = 2;
      max_crashes = 1000;
      chaos =
        Some
          {
            S.Chaos.default_config with
            seed = 23;
            every = 1;
            faults = S.Chaos.faults ~mem:true ~net:true;
          };
      cache_dir = Some (fresh_dir "soak-memnet-cache");
      crash_dir = Some (fresh_dir "soak-memnet-crash");
      clients = 4;
      requests_per_client = 25;
      seed = 23;
    }
  in
  let report = S.Soak.run config in
  checki "all requests accounted for" 100 report.S.Soak.requests;
  checki "zero wrong answers" 0 report.S.Soak.wrong_answers;
  checki "zero protocol violations" 0 report.S.Soak.violations;
  checkb "soak passes" true (S.Soak.passed report);
  checkb "memory aborts came back typed" true
    (List.mem_assoc "DP-BUDGET-MEM" report.S.Soak.error_codes)

(* ------------------------------------------------------------------ *)
(* Resource governance: admission control and the per-request governor *)

let server_admission_rejects_oversized () =
  let configure c =
    { c with S.Server.budget = { Fz.Budget.unlimited with max_rows = 4 } }
  in
  with_server ~configure @@ fun socket _ ->
  (* x*y alone lowers to an addend matrix taller than 4 rows: refused at
     the door, before a worker is occupied *)
  let r = rpc socket (synth_json ~expr:"x*y + z" ()) in
  checkb "rejected" true (get_bool [ "ok" ] r = Some false);
  check Alcotest.string "code" "DP-SRV-TOOBIG"
    (Option.get (get_str [ "error"; "code" ] r));
  (* a short sum fits the same row budget: the server keeps serving *)
  let ok =
    rpc socket
      (Json.Obj
         [
           ("id", Json.Int 2);
           ("op", Json.Str "synth");
           ("expr", Json.Str "x + 1");
           ( "vars",
             Json.List [ Json.Obj [ ("name", Json.Str "x"); ("width", Json.Int 2) ] ] );
         ])
  in
  checkb "small request admitted" true (get_bool [ "ok" ] ok = Some true);
  let st = rpc socket (Json.Obj [ ("id", Json.Int 3); ("op", Json.Str "stats") ]) in
  checki "toobig counted" 1
    (Option.value
       (get_int [ "stats"; "governance"; "toobig_rejects" ] st)
       ~default:(-1))

let server_memory_watermark_sheds () =
  (* A one-word watermark is always exceeded: every new request is shed
     with the typed overload envelope instead of deepening the pressure *)
  let configure c = { c with S.Server.mem_watermark_words = Some 1 } in
  with_server ~configure @@ fun socket _ ->
  let r = rpc socket (synth_json ()) in
  checkb "shed" true (get_bool [ "ok" ] r = Some false);
  check Alcotest.string "code" "DP-SRV-OVERLOAD"
    (Option.get (get_str [ "error"; "code" ] r));
  check Alcotest.string "reason" "memory"
    (Option.value (get_str [ "error"; "context"; "reason" ] r) ~default:"?");
  let st = rpc socket (Json.Obj [ ("id", Json.Int 2); ("op", Json.Str "stats") ]) in
  checkb "shed counted" true
    (match get_int [ "stats"; "governance"; "mem_sheds" ] st with
    | Some n -> n >= 1
    | None -> false)

let server_mem_squeeze_aborts_and_recovers () =
  (* Ticks: each request is one worker tick and one respond tick, so
     [every = 3] with only [Mem_squeeze] configured fires on the 2nd
     request's worker tick (squeezing that job under a one-word
     watermark) and on the 3rd request's respond tick, where the class
     is not applicable — a fully deterministic schedule. *)
  let configure c =
    { c with S.Server.chaos = Some (chaos_only ~every:3 S.Chaos.Mem_squeeze) }
  in
  with_server ~configure @@ fun socket _ ->
  let r1 = rpc socket (synth_json ()) in
  checkb "first request serves" true (get_bool [ "ok" ] r1 = Some true);
  let r2 = rpc socket (synth_json ~id:2 ()) in
  checkb "squeezed request fails typed" true (get_bool [ "ok" ] r2 = Some false);
  check Alcotest.string "code" "DP-BUDGET-MEM"
    (Option.get (get_str [ "error"; "code" ] r2));
  (* the worker survived the abort and the cache entry is whole: the
     same request now serves from cache, byte-identical *)
  let r3 = rpc socket (synth_json ~id:3 ()) in
  checkb "worker reused" true (get_bool [ "ok" ] r3 = Some true);
  checkb "cached" true (get_bool [ "cached" ] r3 = Some true);
  check Alcotest.string "byte-identical after abort"
    (Json.to_string (Option.get (get [ "result" ] r1)))
    (Json.to_string (Option.get (get [ "result" ] r3)));
  let st = rpc socket (Json.Obj [ ("id", Json.Int 4); ("op", Json.Str "stats") ]) in
  checki "cancellation counted" 1
    (Option.value (get_int [ "stats"; "governance"; "cancelled" ] st) ~default:(-1));
  checki "no worker crash" 0
    (Option.value (get_int [ "stats"; "supervisor"; "crashes" ] st) ~default:(-1))

let suite =
  [
    case "json: printer/parser round-trips" json_round_trips;
    case "json: rejects malformed input" json_rejects_malformed;
    case "json: deterministic float emission" json_floats_deterministic;
    case "protocol: parses a synth request" proto_parses_synth;
    case "protocol: DP-PROTO001/002 on bad input" proto_error_codes;
    case "protocol: client request round-trips" proto_request_round_trips;
    case "server: synth, cache hit, canonical reuse" server_synth_and_cache;
    case "server: batch keeps order, errors in place" server_batch_order_and_errors;
    case "server: survives malformed lines" server_survives_bad_input;
    case "server: infinite arrival is DP-ENV002" server_rejects_infinite_arrival;
    case "server: stats counters and histogram" server_stats;
    case "server: per-request cell budget" server_enforces_cell_budget;
    case "server: shutdown op stops everything" server_shutdown_op;
    case "server: worker crash -> typed error, dump, restart"
      server_crash_restart_and_dump;
    case "server: crash storm opens the breaker"
      server_breaker_opens_under_crash_storm;
    case "supervisor: open/half-open/close cycle" breaker_half_open_cycle;
    case "server: deadline expires in the queue" server_deadline_expires_in_queue;
    case "server: torn response is typed; retry recovers"
      server_torn_response_is_typed;
    case "server: shutdown with a lost acknowledgement still stops"
      server_shutdown_survives_a_lost_ack;
    case "server: corrupted cache entry is a miss under load"
      server_corrupt_cache_entry_is_a_miss;
    case "server: SIGTERM drains and flushes the histogram"
      server_sigterm_graceful;
    case "soak: chaos run holds the safety invariants"
      soak_chaos_holds_invariants;
    case "server: ping answers inline" server_ping_op;
    case "lineio: EPIPE surfaces as DP-PROTO004" lineio_epipe_is_typed;
    case "lineio: a long line costs linear time" lineio_long_line_is_linear;
    case "store: concurrent cross-process writers never tear an entry"
      store_concurrent_writers_leave_one_whole_entry;
    case "store: a partial disk write is a miss"
      store_partial_write_degrades_to_miss;
    case "shards: failover during downtime, restart, rejoin"
      router_failover_and_rejoin;
    case "shards: every shard down is a typed retryable error"
      router_all_shards_down_is_typed;
    case "shards: hung shard is health-killed and restarted"
      pool_health_kills_hung_shard;
    case "shards: router aggregates stats across the fleet"
      router_aggregates_stats;
    case "soak: sharded run with shard kills holds the invariants"
      soak_sharded_kill_chaos_holds_invariants;
    case "soak: sharded run with hedged hangs holds the invariants"
      soak_hedged_hangs_hold_invariants;
    case "soak: unused topology flags refused"
      soak_refuses_ignored_topology_fields;
    case "soak: memory and network chaos cross the exec to shards"
      soak_sharded_mem_net_chaos_crosses_the_exec;
    case "shards: a restarted shard exits 0 on SIGTERM"
      pool_restarted_shard_exits_0_on_sigterm;
    case "shards: a shard restarted behind a router inherits no descriptors"
      pool_restarted_shard_inherits_no_descriptors;
    case "server: admission rejects oversized requests"
      server_admission_rejects_oversized;
    case "server: memory watermark sheds new work"
      server_memory_watermark_sheds;
    case "server: mem-squeeze chaos aborts typed, worker recovers"
      server_mem_squeeze_aborts_and_recovers;
    case "router: survives malformed lines" router_survives_bad_input;
    case "router: truncated request is typed"
      router_truncated_request_is_typed;
    case "router: SIGTERM drains and stops the pool" router_sigterm_graceful;
  ]
