(* The sharded front: one Unix socket facing clients, N shard server
   processes (a [Shard_pool]) behind it.

   Every synthesis request is routed by its content address — the first
   byte of the request digest, modulo the shard count — so a given
   request always lands on the same home shard and the shards' disk
   stores stay hot on disjoint digest ranges.  When the home shard is
   down (restart backoff) or fails mid-forward, the request walks to the
   next live shard instead: requests are digest-keyed and idempotent, so
   a fallback shard computes (or serves from the shared disk store) the
   exact same bytes.  Only when every shard is unreachable does the
   client see an error — the retryable [DP-SRV-SHARD-DOWN].

   The router speaks the same line protocol as a single server, so
   [dpsyn client] cannot tell the difference; [stats] answers with
   counters aggregated across the whole topology. *)

module Diag = Dp_diag.Diag

type config = {
  socket_path : string;
  pool : Shard_pool.t;
  tech : Dp_tech.Tech.t;  (* must match the shards', or digests disagree *)
  forward_timeout_s : float;
  log : string -> unit;
  handle_signals : bool;
  journal : Journal.t option;
  hedge : bool;
}

let default_config ~socket_path ~pool =
  {
    socket_path;
    pool;
    tech = Dp_tech.Tech.lcb_like;
    forward_timeout_s = 60.0;
    log = ignore;
    handle_signals = false;
    journal = None;
    hedge = false;
  }

(* Recent forward latencies, kept as a fixed ring — enough signal for a
   percentile without unbounded growth. *)
let lat_window = 128

type t = {
  config : config;
  listener : Listener.t;
  state_lock : Mutex.t;
  mutable routed : int;  (* forwards answered by a shard *)
  mutable failovers : int;  (* forwards answered by a non-home shard *)
  mutable forward_errors : int;  (* forwards no shard could answer *)
  mutable hedges_fired : int;  (* duplicate dispatches issued *)
  mutable hedge_wins : int;  (* requests answered by the duplicate *)
  mutable diverges : int;  (* hedge pairs with differing result bytes *)
  mutable replayed : int;  (* journal entries recovered at start *)
  mutable redispatched : int;  (* incomplete entries re-forwarded *)
  lat : float array;
  mutable lat_n : int;  (* total latencies recorded *)
}

let locked t f = Mutex.protect t.state_lock f

let record_latency t dt =
  locked t (fun () ->
      t.lat.(t.lat_n mod lat_window) <- dt;
      t.lat_n <- t.lat_n + 1)

(* ------------------------------------------------------------------ *)
(* Routing *)

let home_of_digest t = function
  | None -> 0  (* no key — shard 0 produces the typed error *)
  | Some digest -> (
    match int_of_string ("0x" ^ String.sub digest 0 2) with
    | byte -> byte mod Shard_pool.shard_count t.config.pool
    | exception _ -> 0)

let home_of t p =
  home_of_digest t (Protocol.digest_of_params ~tech:t.config.tech p)

(* Forward to the home shard, failing over along home+1, home+2, … —
   shards the pool believes down are skipped, shards that error at the
   transport level (died between the pool noticing and our connect, or
   hung past the forward deadline) are walked past the same way.  An
   error *envelope* from a shard is a valid answer and is never failed
   over: the fallback would compute the identical typed error. *)
let forward t ~home json =
  let pool = t.config.pool in
  let n = Shard_pool.shard_count pool in
  let t0 = Unix.gettimeofday () in
  let rec go k =
    if k >= n then begin
      locked t (fun () -> t.forward_errors <- t.forward_errors + 1);
      Error
        (Diag.v ~code:"DP-SRV-SHARD-DOWN" ~subsystem:"server"
           ~context:
             [ ("home", string_of_int home); ("shards", string_of_int n) ]
           "no shard could serve this request; its home shard is restarting")
    end
    else
      let i = (home + k) mod n in
      if not (Shard_pool.is_up pool i) then go (k + 1)
      else
        match
          Client.once
            ~deadline:(Unix.gettimeofday () +. t.config.forward_timeout_s)
            ~socket:(Shard_pool.socket_of pool i) json
        with
        | Ok resp ->
          locked t (fun () ->
              t.routed <- t.routed + 1;
              if i <> home then t.failovers <- t.failovers + 1);
          record_latency t (Unix.gettimeofday () -. t0);
          Ok resp
        | Error _ -> go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Hedged dispatch: when the home shard has not answered within a
   percentile of recent forward latencies, duplicate the request to the
   next shard and take whichever answer lands first.  Safe because
   requests are digest-idempotent — and the straggler, when it does
   arrive, is byte-compared against the winner as a free cross-shard
   audit. *)

(* The bytes that must agree across shards: the ["result"] member alone.
   The envelope's [cached] flag legitimately differs (one shard may
   serve from its store while the other synthesizes fresh) and is
   excluded from the result record for exactly this reason. *)
let result_bytes resp =
  match Json.member "ok" resp |> Fun.flip Option.bind Json.to_bool with
  | Some true -> Option.map Json.to_string (Json.member "result" resp)
  | _ -> None

(* The p95 of recent forward latencies, clamped to [25 ms, 1 s]. *)
let hedge_delay t =
  let min_delay_s = 0.025 and max_delay_s = 1.0 in
  locked t (fun () ->
      let n = min t.lat_n lat_window in
      if n < 8 then max_delay_s (* not enough signal yet; hedge late *)
      else begin
        let xs = Array.sub t.lat 0 n in
        Array.sort compare xs;
        let idx = min (n - 1) (int_of_float (0.95 *. float_of_int n)) in
        Float.max min_delay_s (Float.min max_delay_s xs.(idx))
      end)

let diverge_error ~home ~hedge_shard =
  Diag.v ~code:"DP-SRV-DIVERGE" ~subsystem:"server"
    ~context:
      [
        ("home", string_of_int home); ("hedge_shard", string_of_int hedge_shard);
      ]
    "home and hedge shards returned different result bytes for one \
     request; refusing to pick an answer"

(* Forward with a hedge: run the primary in its own thread; if it has
   not answered within the percentile-derived delay, fire a duplicate
   starting at the next shard and deliver whichever answer arrives
   first.  If both answers are in hand before delivery and their result
   bytes differ, the client gets [DP-SRV-DIVERGE] — never a silently
   picked answer.  When the laggard arrives after delivery, a detached
   audit thread still byte-compares and records the divergence. *)
let forward_hedged t ~home json =
  let n = Shard_pool.shard_count t.config.pool in
  if (not t.config.hedge) || n < 2 then forward t ~home json
  else
    let hedge_shard = (home + 1) mod n in
    let m = Mutex.create () in
    let cv = Condition.create () in
    let arrivals = ref [] in
    let deliver who r =
      Mutex.protect m (fun () ->
          arrivals := !arrivals @ [ (who, r) ];
          Condition.broadcast cv)
    in
    ignore (Thread.create (fun () -> deliver `Primary (forward t ~home json)) ());
    let delay = hedge_delay t in
    let t0 = Unix.gettimeofday () in
    (* No timed condvar wait in the stdlib: poll on a short period until
       the primary lands or the hedge delay expires. *)
    let rec await_primary () =
      if Mutex.protect m (fun () -> !arrivals <> []) then true
      else if Unix.gettimeofday () -. t0 >= delay then false
      else begin
        Thread.delay 0.002;
        await_primary ()
      end
    in
    let audit rs =
      match rs with
      | [ (_, Ok a); (_, Ok b) ] -> (
        match (result_bytes a, result_bytes b) with
        | Some ba, Some bb when not (String.equal ba bb) ->
          locked t (fun () -> t.diverges <- t.diverges + 1);
          t.config.log
            (Printf.sprintf
               "[DP-SRV-DIVERGE] home shard %d and hedge shard %d disagree \
                (%d vs %d result bytes)"
               home hedge_shard (String.length ba) (String.length bb));
          true
        | _ -> false)
      | _ -> false
    in
    if await_primary () then
      match Mutex.protect m (fun () -> !arrivals) with
      | (_, r) :: _ -> r
      | [] -> assert false
    else begin
      locked t (fun () -> t.hedges_fired <- t.hedges_fired + 1);
      ignore
        (Thread.create
           (fun () -> deliver `Hedge (forward t ~home:hedge_shard json))
           ());
      (* Take the first arrival... *)
      Mutex.lock m;
      while !arrivals = [] do
        Condition.wait cv m
      done;
      let snapshot = !arrivals in
      Mutex.unlock m;
      (* ...unless both are already in and disagree. *)
      if List.length snapshot >= 2 && audit snapshot then
        Error (diverge_error ~home ~hedge_shard)
      else begin
        let who, r = List.hd snapshot in
        if who = `Hedge then locked t (fun () -> t.hedge_wins <- t.hedge_wins + 1);
        (* The laggard still gets audited — hedging doubles as a
           continuous cross-shard consistency probe. *)
        if List.length snapshot < 2 then
          ignore
            (Thread.create
               (fun () ->
                 Mutex.lock m;
                 while List.length !arrivals < 2 do
                   Condition.wait cv m
                 done;
                 let rs = !arrivals in
                 Mutex.unlock m;
                 ignore (audit rs))
               ());
        r
      end
    end

(* ------------------------------------------------------------------ *)
(* Batch: partition by home shard, forward the sub-batches concurrently,
   stitch the elements back into request order. *)

let shard_error_element d =
  Json.Obj [ ("ok", Json.Bool false); ("error", Protocol.diag_to_json d) ]

let malformed_shard_response () =
  Diag.v ~code:"DP-PROTO005" ~subsystem:"proto"
    "shard returned a malformed batch response"

let handle_batch t ps =
  let ps_arr = Array.of_list ps in
  let n = Shard_pool.shard_count t.config.pool in
  let groups = Array.make n [] in
  Array.iteri
    (fun idx p ->
      let h = home_of t p in
      groups.(h) <- idx :: groups.(h))
    ps_arr;
  let results = Array.make (Array.length ps_arr) Json.Null in
  let run_group home idxs =
    let sub = List.map (fun i -> ps_arr.(i)) idxs in
    let json =
      Protocol.request_to_json { Protocol.id = Json.Null; req = Protocol.Batch sub }
    in
    let fill_err d =
      let el = shard_error_element d in
      List.iter (fun i -> results.(i) <- el) idxs
    in
    match forward t ~home json with
    | Error d -> fill_err d
    | Ok resp -> (
      match Json.member "ok" resp |> Fun.flip Option.bind Json.to_bool with
      | Some true -> (
        match Json.member "results" resp with
        | Some (Json.List els) when List.length els = List.length idxs ->
          List.iter2 (fun i el -> results.(i) <- el) idxs els
        | _ -> fill_err (malformed_shard_response ()))
      | Some false ->
        (* The shard rejected the whole sub-batch with one typed error
           (e.g. shutdown); every element inherits it. *)
        let el =
          Json.Obj
            [
              ("ok", Json.Bool false);
              ( "error",
                Option.value (Json.member "error" resp) ~default:Json.Null );
            ]
        in
        List.iter (fun i -> results.(i) <- el) idxs
      | None -> fill_err (malformed_shard_response ()))
  in
  let threads =
    List.concat
      (List.init n (fun home ->
           match groups.(home) with
           | [] -> []
           | rev ->
             let idxs = List.rev rev in
             [ Thread.create (fun () -> run_group home idxs) () ]))
  in
  List.iter Thread.join threads;
  Array.to_list results

(* ------------------------------------------------------------------ *)
(* Aggregated stats *)

let get_int j name =
  Option.value (Json.member name j |> Fun.flip Option.bind Json.to_int) ~default:0

let sum_field objs name =
  Json.Int (List.fold_left (fun acc j -> acc + get_int j name) 0 objs)

let sum_obj objs name fields =
  let subs =
    List.filter_map
      (fun j ->
        match Json.member name j with Some (Json.Obj _ as o) -> Some o | _ -> None)
      objs
  in
  if subs = [] then Json.Null
  else Json.Obj (List.map (fun f -> (f, sum_field subs f)) fields)

(* Buckets are positional and identical across shards (same build). *)
let sum_latency objs =
  let buckets =
    List.filter_map
      (fun j ->
        match Json.member "latency_ms" j with
        | Some (Json.List bs) -> Some bs
        | _ -> None)
      objs
  in
  match buckets with
  | [] -> Json.List []
  | first :: _ ->
    let les =
      Array.of_list
        (List.map
           (fun b -> Option.value (Json.member "le_ms" b) ~default:Json.Null)
           first)
    in
    let counts = Array.make (Array.length les) 0 in
    List.iter
      (List.iteri (fun i b ->
           if i < Array.length counts then
             counts.(i) <- counts.(i) + get_int b "count"))
      buckets;
    Json.List
      (List.init (Array.length counts) (fun i ->
           Json.Obj [ ("le_ms", les.(i)); ("count", Json.Int counts.(i)) ]))

(* The router's own counters: the [router] member of [stats] and of the
   drain line. *)
let router_json t ~shards_reporting =
  let ints = List.map (fun (k, v) -> (k, Json.Int v)) in
  let connections = Listener.connections t.listener in
  let counters, replay =
    locked t (fun () ->
        ( [
            ("connections", connections);
            ("routed", t.routed);
            ("failovers", t.failovers);
            ("forward_errors", t.forward_errors);
            ("shards_reporting", shards_reporting);
            ("hedges_fired", t.hedges_fired);
            ("hedge_wins", t.hedge_wins);
            ("diverges", t.diverges);
          ],
          [ ("replayed", t.replayed); ("redispatched", t.redispatched) ] ))
  in
  let journal =
    match t.config.journal with
    | None -> []
    | Some j ->
      let js = Journal.stats j in
      [
        ( "journal",
          Json.Obj
            (ints
               (replay
               @ [
                   ("appended", js.Journal.appended);
                   ("recovered", js.Journal.recovered);
                   ("torn_bytes", js.Journal.torn_bytes);
                   ("compactions", js.Journal.compactions);
                 ])) );
      ]
  in
  Json.Obj (ints counters @ journal)

let stats_json t =
  let pool = t.config.pool in
  let n = Shard_pool.shard_count pool in
  let req =
    Protocol.request_to_json
      { Protocol.id = Json.Str "router-stats"; req = Protocol.Stats }
  in
  let shard_stats =
    List.init n (fun i ->
        if not (Shard_pool.is_up pool i) then None
        else
          match
            Client.once
              ~deadline:(Unix.gettimeofday () +. t.config.forward_timeout_s)
              ~socket:(Shard_pool.socket_of pool i) req
          with
          | Error _ -> None
          | Ok resp -> Json.member "stats" resp)
    |> List.filter_map Fun.id
  in
  Json.Obj
    [
      ("served", sum_field shard_stats "served");
      ("errors", sum_field shard_stats "errors");
      ("connections", sum_field shard_stats "connections");
      ("workers", sum_field shard_stats "workers");
      ("queue_depth", sum_field shard_stats "queue_depth");
      ( "cache",
        sum_obj shard_stats "cache"
          [ "hits"; "disk_hits"; "misses"; "evictions"; "corrupt"; "stores"; "entries" ]
      );
      ( "supervisor",
        sum_obj shard_stats "supervisor"
          [
            "crashes";
            "restarts";
            "rejected";
            "crash_dumps";
            "deadline_expired";
            "guard_rejects";
          ] );
      ("latency_ms", sum_latency shard_stats);
      ("router", router_json t ~shards_reporting:(List.length shard_stats));
      ("shard_pool", Shard_pool.stats_json pool);
    ]

(* ------------------------------------------------------------------ *)
(* Requests the listener hands over *)

let handle t ~id = function
  | Protocol.Stats -> Protocol.ok_response ~id [ ("stats", stats_json t) ]
  | Protocol.Synth p -> (
    let digest = Protocol.digest_of_params ~tech:t.config.tech p in
    let home = home_of_digest t digest in
    let json = Protocol.request_to_json { Protocol.id; req = Protocol.Synth p } in
    (* Journal the admission before any forward: a router crash after
       this point leaves a replayable record.  A request with no
       content address is not journaled — the shard's typed error is
       cheap to recompute. *)
    let seq =
      match (t.config.journal, digest) with
      | Some j, Some digest ->
        Some (j, Journal.admit j ~digest ~params:(Protocol.params_to_json p))
      | _ -> None
    in
    match forward_hedged t ~home json with
    | Ok resp ->
      (* Any shard answer — an error envelope included — completes the
         journal entry: the outcome is reproducible from the store (or
         recomputable), so replaying it would only duplicate work. *)
      Option.iter (fun (j, s) -> Journal.complete j ~seq:s) seq;
      (* Relay the shard's envelope; the deterministic printer makes
         the re-serialization byte-identical to the shard's own line,
         so sharding is invisible to byte-comparing clients. *)
      resp
    | Error d -> Protocol.error_response ~id d)
  | Protocol.Batch ps -> Protocol.batch_response ~id (handle_batch t ps)
  | Protocol.Ping | Protocol.Shutdown -> assert false (* answered by the listener *)

(* ------------------------------------------------------------------ *)
(* Journal replay: the crash-recovery pass, run once at start before the
   socket accepts clients.  [Completed] entries need no work — their
   answers live in the digest-keyed store and will be re-served
   byte-identically on the next request.  Incomplete entries are
   re-dispatched to the home shard of their recorded digest: digest
   idempotency makes a double-dispatch (the pre-crash forward may have
   finished on the shard) converge on the same stored bytes, so replay
   never duplicates a side effect. *)

let replay_journal t =
  match t.config.journal with
  | None -> ()
  | Some j ->
    List.iter
      (fun (e : Journal.entry) ->
        match e.Journal.state with
        | Journal.Completed ->
          locked t (fun () -> t.replayed <- t.replayed + 1)
        | Journal.Admitted -> (
          match Protocol.params_of_json e.Journal.params with
          | Error d ->
            t.config.log
              (Printf.sprintf
                 "[DP-SRV-REPLAY] seq %d digest %s: unreadable params (%s); \
                  dropping"
                 e.Journal.seq e.Journal.digest d.Diag.message);
            Journal.complete j ~seq:e.Journal.seq
          | Ok p -> (
            let home = home_of_digest t (Some e.Journal.digest) in
            let json =
              Protocol.request_to_json
                {
                  Protocol.id =
                    Json.Str (Printf.sprintf "replay-%d" e.Journal.seq);
                  req = Protocol.Synth p;
                }
            in
            match forward t ~home json with
            | Ok _ ->
              Journal.complete j ~seq:e.Journal.seq;
              locked t (fun () ->
                  t.replayed <- t.replayed + 1;
                  t.redispatched <- t.redispatched + 1);
              t.config.log
                (Printf.sprintf
                   "[DP-SRV-REPLAY] seq %d digest %s re-dispatched to shard %d"
                   e.Journal.seq e.Journal.digest home)
            | Error d ->
              (* Stays incomplete; the next incarnation tries again. *)
              t.config.log
                (Printf.sprintf "[DP-SRV-REPLAY] seq %d failed: %s"
                   e.Journal.seq d.Diag.message))))
      (Journal.recovered j);
    Journal.compact j

(* ------------------------------------------------------------------ *)

let start (config : config) =
  (* Binding first also masks the signals, so a SIGTERM during the
     replay below only wakes the accept loop, which drains once the
     replay is done. *)
  let listener =
    Listener.bind ~socket_path:config.socket_path
      ~handle_signals:config.handle_signals ~log:config.log
  in
  let t =
    {
      config;
      listener;
      state_lock = Mutex.create ();
      routed = 0;
      failovers = 0;
      forward_errors = 0;
      hedges_fired = 0;
      hedge_wins = 0;
      diverges = 0;
      replayed = 0;
      redispatched = 0;
      lat = Array.make lat_window 0.0;
      lat_n = 0;
    }
  in
  (* Recover before accepting: clients connecting to the new socket must
     observe a journal whose incomplete entries are already back in
     flight.  (Callers bring the pool up — or reattach it — first.) *)
  replay_journal t;
  Listener.serve listener (handle t);
  config.log
    (Printf.sprintf "router listening on %s (%d shards)" config.socket_path
       (Shard_pool.shard_count config.pool));
  t

let request_shutdown t = Listener.request_shutdown t.listener

let wait t =
  Listener.wait t.listener;
  (* The front is down by choice; take the fleet with it.  (A crashed
     router never reaches this line — that is what the journal, the
     pool's state file and the next incarnation's replay are for.) *)
  Shard_pool.shutdown t.config.pool;
  Option.iter Journal.close t.config.journal;
  t.config.log
    ("router drained: "
    ^ Json.to_string
        (Json.Obj
           [
             ("router", router_json t ~shards_reporting:0);
             ("shard_pool", Shard_pool.stats_json t.config.pool);
           ]))

let run config =
  let t = start config in
  wait t
