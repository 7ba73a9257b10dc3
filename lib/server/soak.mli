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
    over forked shards, or a forked journaled router.  It starts the
    front on [socket_path], runs the clients while the topology's fault
    pacer delivers its seeded schedule, lets the front settle, reads its
    counters with one [stats] request and stops it with one [shutdown]
    request on the same socket, then joins or reaps whatever the
    topology started.  A topology differs only in where its pacer ticks
    and what a fault does there, how it settles and how it is reaped.

    Requests are drawn deterministically (by [seed]) from a fixed pool
    of expressions whose expected records are precomputed; a slice of
    requests carries a [deadline_ms] so the deadline path is exercised
    too.  Clients go through {!Client.call}, so the retry/idempotency
    story is part of what the soak proves. *)

type config = {
  socket_path : string;
  clients : int;
  requests_per_client : int;
  seed : int;
  workers : int;
  chaos : Chaos.config option;  (** [None] = plain soak (baseline) *)
  cache_dir : string option;  (** disk store, needed for cache-corruption chaos *)
  crash_dir : string option;
  deadline_ms : float option;  (** attached to every 5th request *)
  crypto_mix : bool;
      (** add the {!Dp_designs.Crypto.light} catalog (wide limbs, signed
          wNAF operands, large coefficients) to the request pool, so the
          soak exercises crypto-scale requests — heavier per request
          than the base pool by design *)
  shards : int;
      (** >= 2 soaks the sharded topology: that many forked shard server
          processes (sharing [cache_dir]) under a {!Shard_pool}, a
          {!Router} on [socket_path], and shard sockets at
          [socket_path.<i>]; <= 1 is the single-process soak *)
  shard_chaos : Chaos.config option;
      (** seeded shard-fault schedule ({!Chaos.shard_faults}: SIGKILL /
          SIGSTOP a random shard), paced while clients are in flight;
          sharded runs only *)
  journal_dir : string option;
      (** run the {e journaled} topology: the router (owning the shard
          pool) lives in a child process, journaling every admitted
          request to this directory and recording the fleet in a shard
          state file there, so {!Chaos.Kill_router} faults can SIGKILL
          it mid-flight and the next incarnation replays + reattaches.
          Requires [shards >= 2]; shard-fault pacing is unavailable in
          this mode (the pool lives in the child). *)
  router_chaos : Chaos.config option;
      (** seeded router-fault schedule ({!Chaos.router_faults}: SIGKILL
          the router child, refork it, measure recovery); journaled runs
          only *)
  hedge : bool;
      (** enable the router's hedged dispatch ({!Router.config}'s
          [hedge]); sharded runs only *)
  log : string -> unit;
}

(** 4 clients x 50 requests, 2 workers, no chaos, unsharded, seed 0. *)
val default_config : socket_path:string -> config

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
  recovery_ms : float;  (** mean SIGKILL → router-answers-again latency *)
}

val passed : report -> bool
val report_json : report -> Json.t
val pp_report : report Fmt.t

(** Start the server (or, with [shards >= 2], the shard pool and
    router; with [journal_dir] also set, the forked journaled router),
    run the soak, read the front's [stats], stop it with [shutdown],
    join (and reap) every thread and process.
    @raise Invalid_argument, naming the field, before starting anything
    when the topology would ignore a field: [journal_dir], [hedge] or
    [shard_chaos] with [shards < 2], [shard_chaos] with [journal_dir],
    or [router_chaos] without [journal_dir]. *)
val run : config -> report
