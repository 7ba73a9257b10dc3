(* The durability layer: the request journal (append-only checksummed
   WAL), router crash recovery and replay, hedged dispatch, network-level
   chaos, and the offline store fsck. *)

open Helpers
module S = Dp_server
module Json = Dp_server.Json
module P = Dp_server.Protocol
module J = Dp_server.Journal
module SP = Dp_server.Shard_pool
module R = Dp_server.Router
module C = Dp_cache

let params_xyz () =
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
  | Ok p -> p
  | Error d -> faild d

(* ------------------------------------------------------------------ *)
(* Journal: WAL semantics *)

let journal_records_and_recovers () =
  let dir = fresh_dir "journal" in
  let j = J.open_ ~dir () in
  let params = Json.Obj [ ("expr", Json.Str "x+y") ] in
  let s1 = J.admit j ~digest:"d1" ~params in
  let s2 = J.admit j ~digest:"d2" ~params in
  J.complete j ~seq:s1;
  J.complete j ~seq:s1 (* idempotent *);
  checki "two entries" 2 (List.length (J.entries j));
  checki "one incomplete" 1 (List.length (J.incomplete j));
  checki "two admissions and one completion appended" 3 (J.stats j).J.appended;
  J.close j;
  let j2 = J.open_ ~dir () in
  (match J.recovered j2 with
  | [ e1; e2 ] ->
    checkb "seq order" true (e1.J.seq = s1 && e2.J.seq = s2);
    checkb "completed state survives" true (e1.J.state = J.Completed);
    checkb "admitted state survives" true (e2.J.state = J.Admitted);
    check Alcotest.string "params ride the admitted record"
      (Json.to_string params)
      (Json.to_string e2.J.params)
  | other -> Alcotest.failf "expected two entries, got %d" (List.length other));
  checki "stats count the recovery" 2 (J.stats j2).J.recovered;
  J.close j2

(* Logs written before the journal had two states carry a [dispatched]
   record (naming the home shard) after every admission, and compaction
   wrote one after each kept admission.  Such a record is good and
   skipped: were it a torn tail, every entry behind it would be
   truncated away. *)
let journal_reads_legacy_dispatched_records () =
  let dir = fresh_dir "legacy" in
  let record fields =
    let payload = Json.to_string (Json.Obj fields) in
    Digest.to_hex (Digest.string payload) ^ " " ^ payload ^ "\n"
  in
  let head seq state =
    [
      ("seq", Json.Int seq);
      ("state", Json.Str state);
      ("digest", Json.Str (Printf.sprintf "d%d" seq));
    ]
  in
  let params seq = Json.Obj [ ("expr", Json.Str (Printf.sprintf "x+%d" seq)) ] in
  let admitted seq = record (head seq "admitted" @ [ ("params", params seq) ]) in
  let dispatched seq shard =
    record (head seq "dispatched" @ [ ("shard", Json.Int shard) ])
  in
  let completed seq = record (head seq "completed") in
  let log =
    String.concat ""
      [
        admitted 1; dispatched 1 0; admitted 2; dispatched 2 1; completed 1;
        admitted 3; dispatched 3 1;
      ]
  in
  let path = Filename.concat dir "journal.log" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc log);
  let j = J.open_ ~dir () in
  checki "no torn bytes" 0 (J.stats j).J.torn_bytes;
  checki "the log is kept whole" (String.length log)
    (Unix.stat path).Unix.st_size;
  (match J.recovered j with
  | [ e1; e2; e3 ] ->
    checkb "seq order" true (e1.J.seq = 1 && e2.J.seq = 2 && e3.J.seq = 3);
    checkb "the completed entry is completed" true (e1.J.state = J.Completed);
    checkb "the dispatched entries are incomplete" true
      (e2.J.state = J.Admitted && e3.J.state = J.Admitted);
    List.iter
      (fun e ->
        check Alcotest.string "digest" (Printf.sprintf "d%d" e.J.seq) e.J.digest;
        check Alcotest.string "params"
          (Json.to_string (params e.J.seq))
          (Json.to_string e.J.params))
      [ e1; e2; e3 ]
  | other -> Alcotest.failf "expected three entries, got %d" (List.length other));
  checki "the next admission follows the recovered ones" 4
    (J.admit j ~digest:"d4" ~params:(params 4));
  J.close j

let journal_truncates_torn_tail () =
  let dir = fresh_dir "torn" in
  let j = J.open_ ~dir () in
  let params = Json.Obj [] in
  ignore (J.admit j ~digest:"aa" ~params);
  J.close j;
  let path = Filename.concat dir "journal.log" in
  let good = (Unix.stat path).Unix.st_size in
  (* a crash mid-append: a partial record with no trailing newline *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "deadbeef torn mid-write";
  close_out oc;
  let j2 = J.open_ ~dir () in
  checki "the good prefix survives" 1 (List.length (J.recovered j2));
  checkb "torn bytes counted" true ((J.stats j2).J.torn_bytes > 0);
  checki "file truncated back to the good prefix" good
    (Unix.stat path).Unix.st_size;
  (* the handle keeps appending cleanly after the truncation *)
  ignore (J.admit j2 ~digest:"bb" ~params);
  J.close j2;
  let j3 = J.open_ ~dir () in
  checki "both records readable after the repair" 2
    (List.length (J.recovered j3));
  J.close j3

let journal_corrupt_record_stops_the_scan () =
  let dir = fresh_dir "flip" in
  let j = J.open_ ~dir () in
  ignore (J.admit j ~digest:"aa" ~params:(Json.Obj []));
  ignore (J.admit j ~digest:"bb" ~params:(Json.Obj []));
  J.close j;
  let path = Filename.concat dir "journal.log" in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  (* flip a byte inside the second record's payload: its checksum no
     longer matches, so the scan must stop at the first record *)
  let first_nl = String.index raw '\n' in
  let bytes = Bytes.of_string raw in
  Bytes.set bytes (first_nl + 40) 'X';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc bytes);
  let j2 = J.open_ ~dir () in
  checki "only the prefix before the bad checksum survives" 1
    (List.length (J.recovered j2));
  checkb "the corrupt suffix was counted" true ((J.stats j2).J.torn_bytes > 0);
  J.close j2

let journal_compaction_keeps_incomplete () =
  let dir = fresh_dir "compact" in
  let j = J.open_ ~dir () in
  let params = Json.Obj [] in
  let seqs =
    List.init 5 (fun i ->
        J.admit j ~digest:(Printf.sprintf "d%d" i) ~params)
  in
  List.iteri (fun i s -> if i < 3 then J.complete j ~seq:s) seqs;
  J.compact j;
  checki "compaction counted" 1 (J.stats j).J.compactions;
  checki "only incomplete entries survive in memory" 2
    (List.length (J.entries j));
  J.close j;
  let j2 = J.open_ ~dir () in
  let entries = J.recovered j2 in
  checki "replay-after-compaction sees only the incomplete" 2
    (List.length entries);
  checkb "they are still incomplete" true
    (List.for_all (fun e -> e.J.state = J.Admitted) entries);
  (* completing and compacting again leaves nothing to replay: a second
     recovery of the same log is idempotent *)
  List.iter (fun e -> J.complete j2 ~seq:e.J.seq) entries;
  J.compact j2;
  J.close j2;
  let j3 = J.open_ ~dir () in
  checki "nothing left to replay" 0 (List.length (J.recovered j3));
  J.close j3

(* ------------------------------------------------------------------ *)
(* Router recovery and hedging over a real exec'd fleet *)

let quick_sup =
  {
    S.Supervisor.max_crashes = 10;
    window_s = 5.0;
    cooldown_s = 0.4;
    backoff_base_s = 0.03;
    backoff_max_s = 0.1;
  }

let with_pool ?(shards = 2) ~cache_dir base f =
  let pool =
    SP.start
      {
        (SP.default_config ~shards
           ~socket_for:(fun i -> base ^ "." ^ string_of_int i)
           ~spawn:(shard_spawn ~cache_dir))
        with
        SP.health_period_s = 0.1;
        health_timeout_s = 0.5;
        health_failures = 3;
        startup_grace_s = 0.3;
        stable_s = 0.2;
        poll_period_s = 0.02;
        grace_s = 3.0;
        supervisor = quick_sup;
        log = ignore;
      }
  in
  Fun.protect
    ~finally:(fun () -> SP.shutdown pool)
    (fun () ->
      checkb "pool came up" true (SP.wait_all_up ~timeout_s:20.0 pool);
      f pool)

let router_replays_incomplete_entry () =
  let base = fresh_socket () in
  let cache_dir = fresh_dir "replay-cache" in
  let jdir = fresh_dir "replay-journal" in
  let p = params_xyz () in
  let digest =
    match P.digest_of_params ~tech:Dp_tech.Tech.lcb_like p with
    | Some d -> d
    | None -> Alcotest.fail "no digest for the test params"
  in
  (* a previous incarnation crashed between admission and completion *)
  let j0 = J.open_ ~dir:jdir () in
  ignore (J.admit j0 ~digest ~params:(P.params_to_json p));
  J.close j0;
  with_pool ~cache_dir base @@ fun pool ->
  let j = J.open_ ~dir:jdir () in
  let rt =
    R.start
      {
        (R.default_config ~socket_path:base ~pool) with
        R.forward_timeout_s = 10.0;
        log = ignore;
        journal = Some j;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      R.request_shutdown rt;
      R.wait rt)
    (fun () ->
      let stats = R.stats_json rt in
      let counter name =
        Option.value ~default:(-1)
          (Option.bind (get [ "router"; "journal"; name ] stats) Json.to_int)
      in
      checki "the incomplete entry was replayed" 1 (counter "replayed");
      checki "it was re-dispatched to its home shard" 1 (counter "redispatched");
      (* the replay filled the shared store: a client asking for the same
         params is served the stored bytes, not a fresh synthesis *)
      let r = rpc base (synth_json ()) in
      checkb "ok" true (get_bool [ "ok" ] r = Some true);
      checkb "served from the store the replay filled" true
        (get_bool [ "cached" ] r = Some true));
  (* the replay completed and compacted the log: a second restart finds
     nothing incomplete to re-dispatch (double-replay idempotence) — the
     client request above left its own completed record behind, which a
     replay merely counts *)
  let j2 = J.open_ ~dir:jdir () in
  checki "second restart has nothing to re-dispatch" 0
    (List.length (J.incomplete j2));
  J.close j2

let hedge_covers_hung_home_shard () =
  let base = fresh_socket () in
  let cache_dir = fresh_dir "hedge-cache" in
  with_pool ~cache_dir base @@ fun pool ->
  let rt =
    R.start
      {
        (R.default_config ~socket_path:base ~pool) with
        R.forward_timeout_s = 3.0;
        log = ignore;
        hedge = true;
      }
  in
  Fun.protect
    ~finally:(fun () ->
      R.request_shutdown rt;
      R.wait rt)
    (fun () ->
      (* warm the shared store through the healthy home shard; eight
         forwards fill the latency window the hedge delay is taken from
         (before that the router waits its full second to hedge, long
         enough for the health check to reap the stopped shard) *)
      let r1 = rpc base (synth_json ~id:1 ()) in
      checkb "warm request ok" true (get_bool [ "ok" ] r1 = Some true);
      for id = 10 to 16 do
        ignore (rpc base (synth_json ~id ()))
      done;
      let home = R.home_of rt (params_xyz ()) in
      checkb "stopped the home shard" true
        (SP.signal_shard pool home Sys.sigstop);
      (* the home shard holds its socket but answers nothing: only the
         hedge can answer inside the forward timeout *)
      let r2 = rpc base (synth_json ~id:2 ()) in
      checkb "answered despite the hung home shard" true
        (get_bool [ "ok" ] r2 = Some true);
      check Alcotest.string "hedge answer byte-identical to the home's"
        (Json.to_string (Option.get (get [ "result" ] r1)))
        (Json.to_string (Option.get (get [ "result" ] r2)));
      (* resume the home shard first: the router's stats also ask every
         shard it believes up for theirs *)
      ignore (SP.signal_shard pool home Sys.sigcont);
      let stats = R.stats_json rt in
      let counter name =
        Option.value ~default:(-1)
          (Option.bind (get [ "router"; name ] stats) Json.to_int)
      in
      checkb "hedge fired" true (counter "hedges_fired" >= 1);
      checkb "the duplicate won" true (counter "hedge_wins" >= 1);
      checki "no divergence between shards" 0 (counter "diverges"))

(* ------------------------------------------------------------------ *)
(* Chaos soaks: network faults; the journaled router-kill topology *)

let soak_net_chaos_holds_invariants () =
  let config =
    {
      (soak_config ()) with
      S.Soak.workers = 2;
      chaos =
        Some
          {
            S.Chaos.seed = 13;
            every = 3;
            slow_s = 0.02;
            faults = S.Chaos.process_faults @ S.Chaos.net_faults;
          };
      cache_dir = Some (fresh_dir "net-cache");
      clients = 3;
      requests_per_client = 10;
      seed = 13;
    }
  in
  let report = S.Soak.run config in
  checki "all requests accounted for" 30 report.S.Soak.requests;
  checki "zero wrong answers" 0 report.S.Soak.wrong_answers;
  checki "zero protocol violations" 0 report.S.Soak.violations;
  checkb "soak passes" true (S.Soak.passed report);
  checkb "some requests succeeded" true (report.S.Soak.ok > 0)

(* A router kill after every 4th answered request: 10 kills over 40
   answers, each followed by an exec'd incarnation that replays the
   journal and reattaches to the still-live shards. *)
let soak_journaled_router_kill_recovers () =
  let config =
    {
      (soak_config ()) with
      S.Soak.workers = 1;
      shards = 2;
      journal_dir = Some (fresh_dir "soak-journal");
      cache_dir = Some (fresh_dir "soak-journal-cache");
      clients = 4;
      requests_per_client = 10;
      seed = 17;
      router_chaos =
        Some
          {
            S.Chaos.default_config with
            seed = 17;
            every = 4;
            faults = S.Chaos.router_faults;
          };
    }
  in
  let report = S.Soak.run config in
  checki "all requests accounted for" 40 report.S.Soak.requests;
  checki "zero wrong answers" 0 report.S.Soak.wrong_answers;
  checki "zero protocol violations" 0 report.S.Soak.violations;
  checki "zero divergences" 0 report.S.Soak.diverges;
  checkb "soak passes" true (S.Soak.passed report);
  checkb "some requests succeeded" true (report.S.Soak.ok > 0);
  checki "one kill per 4 answers" 10 report.S.Soak.router_kills;
  checki "every incarnation came back" 10 report.S.Soak.router_restarts;
  checkb "the new incarnation adopted the still-live shards" true
    (report.S.Soak.shard_reattaches >= 1);
  checkb "recovery is a sub-second blip" true (report.S.Soak.recovery_ms < 1000.0)

(* ------------------------------------------------------------------ *)
(* Store fsck *)

let e = Dp_expr.Parse.expr

let env_xyz =
  Dp_expr.Env.empty
  |> Dp_expr.Env.add_uniform "x" ~width:8
  |> Dp_expr.Env.add_uniform "y" ~width:8
  |> Dp_expr.Env.add_uniform "z" ~width:8

let outcome ~store src =
  match C.Serve.run ~store (C.Serve.request env_xyz (e src)) with
  | Ok o -> o
  | Error d -> Alcotest.failf "%s: %s" src (Dp_diag.Diag.to_string d)

let fsck_finds_and_prunes () =
  let dir = fresh_dir "fsck" in
  let store = C.Store.create ~dir () in
  ignore (outcome ~store "x*y + z");
  ignore (outcome ~store "x + y");
  let dpcs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".dpc")
    |> List.sort compare
  in
  let a, b =
    match dpcs with
    | [ a; b ] -> (a, b)
    | other -> Alcotest.failf "expected two entries, got %d" (List.length other)
  in
  (* corrupt entry [a] in place: its checksum no longer matches *)
  let a_path = Filename.concat dir a in
  let raw = In_channel.with_open_bin a_path In_channel.input_all in
  let bytes = Bytes.of_string raw in
  Bytes.set bytes (Bytes.length bytes - 5)
    (if Bytes.get bytes (Bytes.length bytes - 5) = 'X' then 'Y' else 'X');
  Out_channel.with_open_bin a_path (fun oc -> Out_channel.output_bytes oc bytes);
  (* misfile a whole copy of [b] under the wrong digest *)
  let b_raw =
    In_channel.with_open_bin (Filename.concat dir b) In_channel.input_all
  in
  Out_channel.with_open_bin
    (Filename.concat dir (String.make 32 'f' ^ ".dpc"))
    (fun oc -> Out_channel.output_string oc b_raw);
  (* an orphaned staging file from a long-dead writer *)
  let tmp = Filename.concat dir (a ^ ".tmp.99999.0") in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc "junk");
  Unix.utimes tmp 1.0 1.0;
  (* a lock file whose entry no longer exists *)
  Out_channel.with_open_bin
    (Filename.concat dir (String.make 32 'e' ^ ".lock"))
    (fun _ -> ());
  let r = C.Store.fsck ~dir () in
  checki "scanned" 3 r.C.Store.scanned;
  checki "valid" 1 r.C.Store.valid;
  checki "corrupt" 1 r.C.Store.fsck_corrupt;
  checki "misfiled" 1 r.C.Store.misfiled;
  checki "orphaned tmp" 1 r.C.Store.orphaned_tmp;
  checki "stale lock" 1 r.C.Store.stale_locks;
  checki "nothing pruned without --prune" 0 r.C.Store.pruned;
  let r2 = C.Store.fsck ~prune:true ~dir () in
  checki "prune removes every finding" 4 r2.C.Store.pruned;
  let r3 = C.Store.fsck ~dir () in
  checki "clean after the prune: scanned" 1 r3.C.Store.scanned;
  checki "clean after the prune: valid" 1 r3.C.Store.valid;
  checki "no corrupt left" 0 r3.C.Store.fsck_corrupt;
  checki "no misfiled left" 0 r3.C.Store.misfiled;
  checki "no orphans left" 0 r3.C.Store.orphaned_tmp;
  checki "no stale locks left" 0 r3.C.Store.stale_locks;
  (* exactly one of the two requests still hits: the corrupted entry is
     gone, the valid one survived the prune (which of the two digests
     sorted first decided which file was corrupted) *)
  let store2 = C.Store.create ~dir () in
  let o1 = outcome ~store:store2 "x*y + z" in
  let o2 = outcome ~store:store2 "x + y" in
  checkb "exactly the surviving entry is a hit" true
    (o1.C.Serve.cached <> o2.C.Serve.cached)

(* ------------------------------------------------------------------ *)

let suite =
  [
    case "journal: records, transitions, recovery" journal_records_and_recovers;
    case "journal: legacy dispatched records are read and skipped"
      journal_reads_legacy_dispatched_records;
    case "journal: torn tail is truncated, log stays usable"
      journal_truncates_torn_tail;
    case "journal: checksum mismatch stops the scan"
      journal_corrupt_record_stops_the_scan;
    case "journal: compaction keeps only incomplete; replay idempotent"
      journal_compaction_keeps_incomplete;
    case "router: replays a dispatched-but-incomplete entry on restart"
      router_replays_incomplete_entry;
    case "router: hedge covers a hung home shard, no divergence"
      hedge_covers_hung_home_shard;
    case "soak: network chaos holds the invariants"
      soak_net_chaos_holds_invariants;
    case "soak: journaled router SIGKILL recovers with replay + reattach"
      soak_journaled_router_kill_recovers;
    case "store: fsck finds corruption, misfiling, orphans; prune cleans"
      fsck_finds_and_prunes;
  ]
