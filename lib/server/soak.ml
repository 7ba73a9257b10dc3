module Diag = Dp_diag.Diag

type config = {
  socket_path : string;
  dpsyn : string;
  clients : int;
  requests_per_client : int;
  seed : int;
  workers : int;
  chaos : Chaos.config option;
  cache_dir : string option;
  crash_dir : string option;
  max_crashes : int;
  deadline_ms : float option;
  crypto_mix : bool;
  shards : int;
  shard_chaos : Chaos.config option;
  journal_dir : string option;
  router_chaos : Chaos.config option;
  hedge : bool;
  log : string -> unit;
}

let default_config ~dpsyn ~socket_path =
  {
    socket_path;
    dpsyn;
    clients = 4;
    requests_per_client = 50;
    seed = 0;
    workers = 2;
    chaos = None;
    cache_dir = None;
    crash_dir = None;
    max_crashes = Supervisor.default_policy.max_crashes;
    deadline_ms = None;
    crypto_mix = false;
    shards = 0;
    shard_chaos = None;
    journal_dir = None;
    router_chaos = None;
    hedge = false;
    log = ignore;
  }

(* Every server the soak runs, shard or single: [dpsyn serve]'s defaults
   with the soak's fields, a 64-entry LRU and the response guard. *)
let serve c =
  {
    (Exec.default ~dpsyn:c.dpsyn) with
    workers = c.workers;
    chaos = c.chaos;
    cache_dir = c.cache_dir;
    cache_capacity = 64;
    crash_dir = c.crash_dir;
    max_crashes = c.max_crashes;
    guard_responses = true;
  }

type report = {
  requests : int;
  ok : int;
  typed_errors : int;
  wrong_answers : int;
  violations : int;
  error_codes : (string * int) list;
  elapsed_s : float;
  p50_ms : float;
  p99_ms : float;
  throughput_rps : float;
  shard_kills : int;
  shard_hangs : int;
  shard_restarts : int;
  shard_health_kills : int;
  router_kills : int;
  router_restarts : int;
  replays : int;  (* journal entries recovered across router restarts *)
  shard_reattaches : int;  (* shards adopted instead of respawned *)
  hedges_fired : int;
  hedge_wins : int;
  diverges : int;
  recovery_ms : float;  (* mean SIGKILL → router-answers-again latency *)
}

let passed r = r.violations = 0 && r.wrong_answers = 0 && r.diverges = 0

let report_json r =
  Json.Obj
    [
      ("schema", Json.Str "dpsyn-soak/1");
      ("requests", Json.Int r.requests);
      ("ok", Json.Int r.ok);
      ("typed_errors", Json.Int r.typed_errors);
      ("wrong_answers", Json.Int r.wrong_answers);
      ("violations", Json.Int r.violations);
      ( "error_codes",
        Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) r.error_codes) );
      ("elapsed_s", Json.Float r.elapsed_s);
      ("p50_ms", Json.Float r.p50_ms);
      ("p99_ms", Json.Float r.p99_ms);
      ("throughput_rps", Json.Float r.throughput_rps);
      ("shard_kills", Json.Int r.shard_kills);
      ("shard_hangs", Json.Int r.shard_hangs);
      ("shard_restarts", Json.Int r.shard_restarts);
      ("shard_health_kills", Json.Int r.shard_health_kills);
      ("router_kills", Json.Int r.router_kills);
      ("router_restarts", Json.Int r.router_restarts);
      ("replays", Json.Int r.replays);
      ("shard_reattaches", Json.Int r.shard_reattaches);
      ("hedges_fired", Json.Int r.hedges_fired);
      ("hedge_wins", Json.Int r.hedge_wins);
      ("diverges", Json.Int r.diverges);
      ("recovery_ms", Json.Float r.recovery_ms);
    ]

let pp_report ppf r =
  Fmt.pf ppf
    "@[<v>requests: %d (ok %d, typed errors %d)@,\
     wrong answers: %d@,violations: %d@,\
     latency: p50 %.1f ms, p99 %.1f ms@,\
     throughput: %.1f req/s over %.2f s@,errors by code:%s%s@]"
    r.requests r.ok r.typed_errors r.wrong_answers r.violations r.p50_ms
    r.p99_ms r.throughput_rps r.elapsed_s
    (if r.error_codes = [] then " (none)"
     else
       String.concat ""
         (List.map (fun (c, n) -> Printf.sprintf " %s=%d" c n) r.error_codes))
    (String.concat ""
       [
         (if r.shard_kills + r.shard_hangs + r.shard_restarts = 0 then ""
          else
            Printf.sprintf
              "\nshard faults: kills=%d hangs=%d restarts=%d health_kills=%d"
              r.shard_kills r.shard_hangs r.shard_restarts r.shard_health_kills);
         (if r.router_kills = 0 then ""
          else
            Printf.sprintf
              "\nrouter: kills=%d restarts=%d replays=%d reattaches=%d \
               recovery %.0f ms"
              r.router_kills r.router_restarts r.replays r.shard_reattaches
              r.recovery_ms);
         (if r.hedges_fired = 0 then ""
          else
            Printf.sprintf "\nhedges: fired=%d wins=%d diverges=%d"
              r.hedges_fired r.hedge_wins r.diverges);
       ])

(* ------------------------------------------------------------------ *)
(* The request pool: small, cheap, structurally varied expressions with
   locally precomputed expected records. *)

let pool_specs =
  [
    ("x + y", [ ("x", 6); ("y", 6) ]);
    ("x*y + z", [ ("x", 4); ("y", 4); ("z", 8) ]);
    ("3*x + 5*y", [ ("x", 5); ("y", 5) ]);
    ("(x + y)*(x - y)", [ ("x", 4); ("y", 4) ]);
    ("x*x + 2*x + 1", [ ("x", 5) ]);
    ("x + y + z + 7", [ ("x", 4); ("y", 5); ("z", 6) ]);
    ("x*y - z", [ ("x", 4); ("y", 3); ("z", 6) ]);
    ("2*x + x*y", [ ("x", 4); ("y", 4) ]);
  ]

type pooled = {
  params : Protocol.synth_params;
  expected : string;  (** [Json.to_string] of the expected result record *)
}

let tech = Dp_tech.Tech.lcb_like

let pooled_of_params params =
  let expected =
    match Protocol.serve_request ~tech params with
    | Error d -> Diag.fail d
    | Ok r -> (
      match Dp_cache.Serve.run r with
      | Error d -> Diag.fail d
      | Ok o -> Json.to_string (Protocol.result_record params o))
  in
  { params; expected }

(* The crypto catalog's light designs as wire requests: wide limbs,
   signed wNAF operands, large constant coefficients — the crypto-scale
   end of the workload, with expected records precomputed the same way
   as the base pool's. *)
let crypto_params () =
  List.map
    (fun (d : Dp_designs.Design.t) ->
      let vars =
        List.map
          (fun (name, (vi : Dp_expr.Env.var_info)) ->
            Protocol.var_spec ~arrival:vi.arrival ~prob:vi.prob
              ~signed:vi.signed name ~width:vi.width)
          (Dp_expr.Env.bindings d.env)
      in
      match
        Protocol.synth_params ~vars ~width:(Some d.width)
          (Dp_expr.Ast.to_string d.expr)
      with
      | Ok p -> p
      | Error d -> Diag.fail d)
    Dp_designs.Crypto.light

let build_pool ?(crypto = false) () =
  let base =
    List.map
      (fun (expr_text, vars) ->
        let vars =
          List.map (fun (n, w) -> Protocol.var_spec n ~width:w) vars
        in
        match Protocol.synth_params ~vars expr_text with
        | Ok p -> pooled_of_params p
        | Error d -> Diag.fail d)
      pool_specs
  in
  if crypto then base @ List.map pooled_of_params (crypto_params ())
  else base

(* ------------------------------------------------------------------ *)

type tally = {
  lock : Mutex.t;
  mutable ok : int;
  mutable typed_errors : int;
  mutable wrong_answers : int;
  mutable violations : int;
  codes : (string, int) Hashtbl.t;
  mutable latencies_ms : float list;
}

let count_code t code =
  Hashtbl.replace t.codes code
    (1 + Option.value (Hashtbl.find_opt t.codes code) ~default:0)

(* Both called with the tally's lock held.  A failure is typed when it
   carries a [DP-*] code, else a violation. *)
let violation t code =
  t.violations <- t.violations + 1;
  count_code t code

let count_failure t = function
  | Some code when String.starts_with ~prefix:"DP-" code ->
    t.typed_errors <- t.typed_errors + 1;
    count_code t code
  | _ -> violation t "untyped-error"

let classify tally ~sent_id ~expected response =
  Mutex.protect tally.lock @@ fun () ->
  let id_ok =
    match Json.member "id" response with
    | Some id -> id = sent_id
    | None -> false
  in
  if not id_ok then violation tally "missing-or-wrong-id"
  else
    match Json.member "ok" response |> Fun.flip Option.bind Json.to_bool with
    | Some true -> (
      match Json.member "result" response with
      | Some record when Json.to_string record = expected ->
        tally.ok <- tally.ok + 1
      | Some _ ->
        tally.wrong_answers <- tally.wrong_answers + 1;
        count_code tally "wrong-record"
      | None -> violation tally "ok-without-result")
    | Some false ->
      count_failure tally
        (Json.member "error" response
        |> Fun.flip Option.bind (Json.member "code")
        |> Fun.flip Option.bind Json.to_str)
    | _ -> violation tally "malformed-envelope"

(* One client: its requests in seeded order, each answer followed by
   [tick ()], the topology's fault schedule, which raises [Exit] once
   that schedule is lost. *)
let client_thread config pool tally ~tick k =
  let n_pool = List.length pool in
  let rng = Random.State.make [| config.seed; k; 0x50ac |] in
  for i = 0 to config.requests_per_client - 1 do
    let pooled = List.nth pool (Random.State.int rng n_pool) in
    let deadline_ms =
      match config.deadline_ms with
      | Some d when i mod 5 = 3 -> Some d
      | _ -> None
    in
    let params = { pooled.params with Protocol.deadline_ms } in
    let sent_id = Json.Str (Printf.sprintf "c%d-r%d" k i) in
    let request =
      Protocol.request_to_json
        { Protocol.id = sent_id; req = Protocol.Synth params }
    in
    let retry =
      {
        (* A journaled run SIGKILLs the router mid-flight: the retry
           window must ride out the restart (exec + reattach + replay),
           not just a shard blip. *)
        Client.attempts = (if config.journal_dir = None then 4 else 8);
        per_attempt_timeout_s = 20.0;
        seed = (config.seed * 8191) + (k * 131) + i;
      }
    in
    let t0 = Unix.gettimeofday () in
    let r = Client.call ~retry ~socket:config.socket_path request in
    let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
    (match r with
    | Ok response ->
      classify tally ~sent_id ~expected:pooled.expected response
    | Error (d : Diag.t) ->
      (* Transport failure that survived the retry loop: still a typed
         outcome, not a violation — unless the code is untyped. *)
      Mutex.protect tally.lock (fun () -> count_failure tally (Some d.code)));
    Mutex.protect tally.lock (fun () ->
        tally.latencies_ms <- ms :: tally.latencies_ms);
    tick ()
  done

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let fresh_tally () =
  {
    lock = Mutex.create ();
    ok = 0;
    typed_errors = 0;
    wrong_answers = 0;
    violations = 0;
    codes = Hashtbl.create 16;
    latencies_ms = [];
  }

(* Run the client fleet against whatever is listening on
   [config.socket_path]: its tally and the wall time it took. *)
let drive config pool ~tick =
  let tally = fresh_tally () in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init config.clients (fun k ->
        Thread.create
          (fun () -> try client_thread config pool tally ~tick k with Exit -> ())
          ())
  in
  List.iter Thread.join threads;
  (tally, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Topologies.  Each is a front on [config.socket_path]; the one loop in
   [run] drives clients at it, reads its counters with one [stats]
   request and stops it with one [shutdown] request.  What differs is
   the site its fault schedule ticks at and what a fault does there, how
   it settles before the final read, and how it is reaped. *)

type topology = {
  schedule : (Chaos.config * [ `Worker | `Respond | `Shard | `Router ]) option;
      (* the fault schedule ticked after every answered request, and the
         site it ticks at *)
  fault : Chaos.t -> Chaos.fault -> unit;
  settle : unit -> unit;  (* before the final [stats] read *)
  reap : unit -> unit;  (* after the [shutdown] request *)
}

(* What the soak counts itself: the faults it delivered, the routers it
   restarted, and what each restarted router's [stats] reported. *)
type faults = {
  mutable shard_kills : int;
  mutable shard_hangs : int;
  mutable router_kills : int;
  mutable router_restarts : int;
  mutable replays : int;
  mutable recovery_ms : float list;
}

let deadline_in s = Unix.gettimeofday () +. s

let call ~attempts socket id req =
  Client.call
    ~retry:{ Client.default_retry with attempts; per_attempt_timeout_s = 10.0 }
    ~socket
    (Protocol.request_to_json { Protocol.id = Json.Str id; req })

(* The front's [stats] payload ([Null] if it never answers).  Retried: a
   chaos front tears this response as readily as any other. *)
let front_stats socket =
  match call ~attempts:8 socket "soak-stats" Protocol.Stats with
  | Ok resp -> Option.value (Json.member "stats" resp) ~default:Json.Null
  | Error _ -> Json.Null

let int_at json path =
  let rec go j = function
    | [] -> Json.to_int j
    | k :: rest -> (
      match Json.member k j with Some v -> go v rest | None -> None)
  in
  Option.value (go json path) ~default:0

(* The single server, in this process. *)
let single config =
  let server =
    Server.start
      (Exec.server_config (serve config) ~socket_path:config.socket_path ~tech
         ~log:config.log)
  in
  {
    schedule = None;
    fault = (fun _ _ -> ());
    settle = ignore;
    (* [wait] returning means no leaked server threads. *)
    reap = (fun () -> Server.wait server);
  }

(* N exec'd shards under a pool and a Router in this process, and a
   schedule that SIGKILLs / SIGSTOPs a seeded shard while requests are
   in flight.  Faults count only when the signal landed. *)
let sharded config faults =
  let pool =
    Shard_pool.start
      {
        (Shard_pool.default_config ~shards:config.shards
           ~spawn:(Exec.argv (serve config))
           ~socket_for:(fun i -> config.socket_path ^ "." ^ string_of_int i))
        with
        Shard_pool.health_period_s = 0.1;
        health_timeout_s = 0.5;
        health_failures = 2;
        (* A shard binds its socket within tens of milliseconds; the 5 s
           default would let a shard hung soon after a restart stall
           every request routed to it until it is 5 s old. *)
        startup_grace_s = 0.3;
        stable_s = 0.5;
        poll_period_s = 0.02;
        (* Generous restart intensity: the soak wants to watch shards
           come back, so kills within the run must not wedge the breaker
           open for its whole duration. *)
        supervisor =
          {
            Supervisor.max_crashes = 50;
            window_s = 5.0;
            cooldown_s = 0.5;
            backoff_base_s = 0.02;
            backoff_max_s = 0.2;
          };
        log = config.log;
      }
  in
  if not (Shard_pool.wait_all_up ~timeout_s:30.0 pool) then begin
    Shard_pool.shutdown pool;
    Diag.fail
      (Diag.v ~code:"DP-SRV-SHARD-DOWN" ~subsystem:"server"
         "sharded soak: shards never came up")
  end;
  let router =
    Router.start
      {
        (Router.default_config ~socket_path:config.socket_path ~pool) with
        Router.forward_timeout_s = 20.0;
        hedge = config.hedge;
        log = config.log;
      }
  in
  let signal chaos sg what =
    let v = Chaos.pick chaos config.shards in
    let landed = Shard_pool.signal_shard pool v sg in
    if landed then config.log (Printf.sprintf "soak: %s shard %d" what v);
    landed
  in
  {
    schedule = Option.map (fun cc -> (cc, `Shard)) config.shard_chaos;
    fault =
      (fun chaos -> function
        | Chaos.Kill_shard ->
          if signal chaos Sys.sigkill "SIGKILLed" then
            faults.shard_kills <- faults.shard_kills + 1
        | Chaos.Hang_shard ->
          if signal chaos Sys.sigstop "SIGSTOPped" then
            faults.shard_hangs <- faults.shard_hangs + 1
        | _ -> ());
    (* A kill that landed in the run's last moments may still be waiting
       out its restart backoff or the breaker cooldown: let the pool
       bring every shard back, within a bound, before its restarts are
       read. *)
    settle =
      (fun () -> ignore (Shard_pool.wait_all_up ~timeout_s:10.0 pool : bool));
    (* The router takes the whole pool down (SIGCONT+SIGTERM, bounded
       drain, SIGKILL stragglers) — a leaked shard process would hang
       [wait], which the CI step timeout converts into a failure. *)
    reap = (fun () -> Router.wait router);
  }

(* ------------------------------------------------------------------ *)
(* Journaled topology: the router is its own [dpsyn serve --shards N
   --journal DIR] process, so the soak can SIGKILL it mid-flight — the
   durability contract under test.  The journal and the pool's shard
   state file live in [dir]: each new incarnation replays the one and
   reattaches to the still-live fleet via the other, so a router kill
   costs a blip, not the shards.  The incarnation runs dpsyn serve's own
   pool and router settings.  Shard faults are unavailable here (the
   pool lives in the router process); process, memory and network
   faults still reach the shards through [chaos]. *)

let wait_router_up ~socket ~timeout_s =
  let deadline = deadline_in timeout_s in
  let rec go () =
    if Client.ping ~deadline:(deadline_in 1.0) ~id:(Json.Str "soak-ping") socket
    then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      (* A short poll, so [recovery_ms] times the restart, not the poll. *)
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let journaled config faults dir =
  let argv =
    Exec.argv ~socket_path:config.socket_path
      { (serve config) with shards = config.shards; journal = Some dir; hedge = config.hedge }
  in
  let state_file = Filename.concat dir "shards.json" in
  (* A clean pool shutdown removes the state file, so any shard it still
     records was left behind by a router that did not shut down. *)
  let kill_leftover_shards () =
    List.iter
      (fun (_, pid, _) -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      (Shard_pool.read_state state_file);
    try Sys.remove state_file with Sys_error _ -> ()
  in
  (* An incarnation that does not start, or does not answer within its
     bound, fails the soak; it is not started again. *)
  let start ~timeout_s =
    let down msg =
      kill_leftover_shards ();
      Diag.fail
        (Diag.v ~code:"DP-SRV-SHARD-DOWN" ~subsystem:"server" ("journaled soak: " ^ msg))
    in
    match Exec.spawn argv with
    | exception Unix.Unix_error (e, _, _) ->
      down ("router not started: " ^ Unix.error_message e)
    | pid when wait_router_up ~socket:config.socket_path ~timeout_s -> pid
    | pid ->
      kill_and_reap pid;
      down (Printf.sprintf "router pid %d did not answer within %.0f s" pid timeout_s)
  in
  let router_pid = ref (start ~timeout_s:30.0) in
  {
    schedule = Option.map (fun cc -> (cc, `Router)) config.router_chaos;
    fault =
      (fun _ -> function
        | Chaos.Kill_router ->
          let killed_at = Unix.gettimeofday () in
          kill_and_reap !router_pid;
          faults.router_kills <- faults.router_kills + 1;
          config.log (Printf.sprintf "soak: SIGKILLed router pid %d" !router_pid);
          (* Shards are adopted, not respawned, so a healthy incarnation
             answers in well under a second. *)
          router_pid := start ~timeout_s:10.0;
          faults.router_restarts <- faults.router_restarts + 1;
          faults.recovery_ms <-
            ((Unix.gettimeofday () -. killed_at) *. 1000.0) :: faults.recovery_ms;
          (* Replay runs before the new incarnation accepts, so its stats
             already carry the final counts; harvest now — the next kill
             would erase them. *)
          faults.replays <-
            faults.replays
            + int_at
                (front_stats config.socket_path)
                [ "router"; "journal"; "replayed" ]
        | _ -> ());
    settle = ignore;
    reap =
      (fun () ->
        (* The router acknowledged the shutdown and takes the fleet down
           (adopted shards included) before it exits. *)
        let deadline = deadline_in 30.0 in
        let rec wait_exit () =
          match Unix.waitpid [ Unix.WNOHANG ] !router_pid with
          | 0, _ when Unix.gettimeofday () > deadline -> kill_and_reap !router_pid
          | 0, _ ->
            Thread.delay 0.05;
            wait_exit ()
          | _ | (exception Unix.Unix_error _) -> ()
        in
        wait_exit ();
        kill_leftover_shards ());
  }

(* ------------------------------------------------------------------ *)

(* The topology's fault schedule, ticked by each client after each
   answer it gets; faults are delivered under one lock.  A delivery that
   raises (a journaled router that did not come back) leaves its
   exception in the returned ref, and from then on every tick raises
   [Exit], which stops the clients. *)
let ticker topology =
  let lost = ref None in
  let tick =
    match topology.schedule with
    | None -> ignore
    | Some (cc, site) ->
      let chaos = Chaos.create cc and lock = Mutex.create () in
      fun () ->
        Mutex.protect lock @@ fun () ->
        if Option.is_some !lost then raise Exit;
        try Option.iter (topology.fault chaos) (Chaos.tick chaos ~site)
        with e ->
          lost := Some e;
          raise Exit
  in
  (tick, lost)

(* A topology field that the chosen topology would silently ignore is a
   bad config, refused before anything starts.  (So is a chaos config
   that exec'd servers cannot run: {!Exec.argv} refuses it before the
   first spawn.) *)
let check_topology config =
  let refuse fmt = Printf.ksprintf invalid_arg ("Soak.run: " ^^ fmt) in
  let sharded = config.shards >= 2 in
  if config.journal_dir <> None && not sharded then
    refuse "journal_dir needs shards >= 2 (got %d)" config.shards;
  if config.hedge && not sharded then
    refuse "hedge needs shards >= 2 (got %d)" config.shards;
  if config.shard_chaos <> None && not sharded then
    refuse "shard_chaos needs shards >= 2 (got %d)" config.shards;
  if config.shard_chaos <> None && config.journal_dir <> None then
    refuse "shard_chaos is unavailable with journal_dir (the pool lives in \
            the router process)";
  if config.router_chaos <> None && config.journal_dir = None then
    refuse "router_chaos needs journal_dir"

let run config =
  check_topology config;
  let pool = build_pool ~crypto:config.crypto_mix () in
  let faults =
    {
      shard_kills = 0;
      shard_hangs = 0;
      router_kills = 0;
      router_restarts = 0;
      replays = 0;
      recovery_ms = [];
    }
  in
  let topology =
    match config.journal_dir with
    | Some dir -> journaled config faults dir
    | None -> if config.shards >= 2 then sharded config faults else single config
  in
  let tick, lost = ticker topology in
  let tally, elapsed_s = drive config pool ~tick in
  let stats =
    if Option.is_some !lost then Json.Null
    else (topology.settle (); front_stats config.socket_path)
  in
  (* No retry: a lost acknowledgement still shuts the front down, and a
     second attempt would find no socket. *)
  ignore (call ~attempts:1 config.socket_path "soak-shutdown" Protocol.Shutdown);
  topology.reap ();
  (* A lost schedule fails the run once the front is stopped and reaped. *)
  Option.iter raise !lost;
  let sorted = Array.of_list tally.latencies_ms in
  Array.sort compare sorted;
  let requests = config.clients * config.requests_per_client in
  let at = int_at stats in
  {
    requests;
    ok = tally.ok;
    typed_errors = tally.typed_errors;
    wrong_answers = tally.wrong_answers;
    violations = tally.violations;
    error_codes =
      List.sort compare
        (Hashtbl.fold (fun c n acc -> (c, n) :: acc) tally.codes []);
    elapsed_s;
    p50_ms = percentile sorted 50.0;
    p99_ms = percentile sorted 99.0;
    throughput_rps =
      (if elapsed_s > 0.0 then float_of_int requests /. elapsed_s else 0.0);
    shard_kills = faults.shard_kills;
    shard_hangs = faults.shard_hangs;
    shard_restarts = at [ "shard_pool"; "restarts" ];
    shard_health_kills = at [ "shard_pool"; "health_kills" ];
    router_kills = faults.router_kills;
    router_restarts = faults.router_restarts;
    replays = faults.replays;
    shard_reattaches = at [ "shard_pool"; "adopted" ];
    hedges_fired = at [ "router"; "hedges_fired" ];
    hedge_wins = at [ "router"; "hedge_wins" ];
    diverges = at [ "router"; "diverges" ];
    recovery_ms =
      (match faults.recovery_ms with
      | [] -> 0.0
      | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l));
  }
