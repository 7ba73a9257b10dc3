(** Chaos soak: hammer a (optionally chaos-injected) serving topology
    from N concurrent client threads and assert the protocol's safety
    properties hold under fire:

    - {b zero protocol violations} — every response parses, echoes the
      request id, and every failure carries a typed [DP-*] diagnostic;
    - {b zero wrong answers} — every [ok:true] result record is
      byte-identical to the record computed locally, outside the server,
      for the same parameters (so cache corruption, worker crashes and
      injected result corruption can never surface as silently wrong
      data);
    - {b no leaked workers} — the run ends with a graceful shutdown and
      joins every server thread (and reaps every process); a leak hangs
      the soak, which the CI job's timeout converts into a failure.

    One loop runs every topology — a single in-process server, a router
    over exec'd shards, or an exec'd journaled router; every server
    process is a [dpsyn serve] from {!Exec.spawn}, whose stderr is the
    soak's.  It starts the front on [socket_path] and runs the clients;
    after each answer, a client ticks the topology's seeded fault
    schedule, whose faults are delivered under one lock.  Then it lets
    the front settle, reads its counters with one [stats] request and
    stops it with one [shutdown] request on the same socket, then joins
    or reaps whatever the topology started.  A topology differs only in
    where its schedule ticks and what a fault does there, how it settles
    and how it is reaped.

    Requests are drawn deterministically (by [seed]) from a fixed pool
    of expressions whose expected records are precomputed; a slice of
    requests carries a [deadline_ms] so the deadline path is exercised
    too.  Clients go through {!Client.call}, so the retry/idempotency
    story is part of what the soak proves. *)

type config = {
  socket_path : string;
  dpsyn : string;  (** path of the [dpsyn] binary every server process execs *)
  clients : int;
  requests_per_client : int;
  seed : int;
  workers : int;
  chaos : Chaos.config option;  (** [None] = plain soak (baseline) *)
  cache_dir : string option;  (** disk store, needed for cache-corruption chaos *)
  crash_dir : string option;
  max_crashes : int;  (** each server's breaker bound ({!Supervisor.policy}) *)
  deadline_ms : float option;  (** attached to every 5th request *)
  crypto_mix : bool;
      (** add the {!Dp_designs.Crypto.light} catalog (wide limbs, signed
          wNAF operands, large coefficients) to the request pool, so the
          soak exercises crypto-scale requests — heavier per request
          than the base pool by design *)
  shards : int;
      (** >= 2 soaks a {!Router} on [socket_path] over that many exec'd
          shards (sockets [socket_path.<i>], sharing [cache_dir]) under a
          {!Shard_pool}; <= 1 is the single-process soak *)
  shard_chaos : Chaos.config option;
      (** seeded shard-fault schedule ({!Chaos.shard_faults}: SIGKILL /
          SIGSTOP a random shard), ticked after every answered request;
          sharded runs without a journal only *)
  journal_dir : string option;
      (** the {e journaled} topology: the router itself is an exec'd
          [dpsyn serve --shards N --journal DIR], so {!Chaos.Kill_router}
          faults can SIGKILL it mid-flight and the next incarnation
          replays + reattaches.  Requires [shards >= 2] *)
  router_chaos : Chaos.config option;
      (** seeded router-fault schedule ({!Chaos.router_faults}: SIGKILL
          the router process, exec the next incarnation, measure
          recovery), ticked after every answered request; journaled runs
          only *)
  hedge : bool;
      (** enable the router's hedged dispatch ({!Router.config}'s
          [hedge]); sharded runs only *)
  log : string -> unit;
}

(** 4 clients x 50 requests, seed 0, and {!Exec.default}'s unsharded
    server without chaos, but with a 64-entry LRU and the response
    guard. *)
val default_config : dpsyn:string -> socket_path:string -> config

(** Every topology counter comes from one of two places: the soak's own
    count of the faults it delivered and the routers it restarted, or
    the front's final [stats] reply, whose [router] and [shard_pool]
    sections a single server does not have (so they read 0 there). *)
type report = {
  requests : int;  (** total requests sent *)
  ok : int;  (** [ok:true] envelopes with a byte-correct record *)
  typed_errors : int;  (** failures carrying a [DP-*] diagnostic *)
  wrong_answers : int;  (** [ok:true] records that mismatched — must be 0 *)
  violations : int;  (** protocol violations — must be 0 *)
  error_codes : (string * int) list;  (** failure census, by code *)
  elapsed_s : float;
  p50_ms : float;
  p99_ms : float;
  throughput_rps : float;
  shard_kills : int;  (** SIGKILLs delivered by shard chaos (0 unsharded) *)
  shard_hangs : int;  (** SIGSTOPs delivered by shard chaos *)
  shard_restarts : int;  (** pool restarts after shard deaths ([stats]) *)
  shard_health_kills : int;
      (** hung shards reaped by the health check ([stats]) *)
  router_kills : int;  (** router SIGKILLs delivered by router chaos *)
  router_restarts : int;  (** router incarnations that came back up *)
  replays : int;
      (** journal entries recovered across restarts (completed entries
          counted + incomplete entries re-dispatched), summed over the
          [stats] of every restarted incarnation *)
  shard_reattaches : int;
      (** shards the final incarnation's pool adopted (still-live
          processes) instead of respawning ([stats]) *)
  hedges_fired : int;  (** duplicate dispatches issued by hedging ([stats]) *)
  hedge_wins : int;  (** requests answered by the duplicate ([stats]) *)
  diverges : int;  (** cross-shard byte mismatches — must be 0 ([stats]) *)
  recovery_ms : float;
      (** mean SIGKILL → router-answers-again latency, polled every 5 ms *)
}

val passed : report -> bool
val report_json : report -> Json.t
val pp_report : report Fmt.t

(** Start the server (or, with [shards >= 2], the shard pool and
    router; with [journal_dir] also set, the exec'd journaled router),
    run the soak, read the front's [stats], stop it with [shutdown],
    join (and reap) every thread and process.
    @raise Invalid_argument, naming the field, before starting anything
    when the topology would ignore a field: [journal_dir], [hedge] or
    [shard_chaos] with [shards < 2], [shard_chaos] with [journal_dir],
    or [router_chaos] without [journal_dir]; or when exec'd servers
    cannot run [chaos].
    @raise Dp_diag.Diag.E [DP-SRV-SHARD-DOWN] when the shards, or a
    journaled router incarnation, do not start or answer within their
    bound (30 s to start, 10 s after a router kill).  It, or any failure
    to deliver a fault, is raised once the front is stopped and reaped. *)
val run : config -> report
