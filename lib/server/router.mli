(** The sharded serving front: one client-facing Unix socket, a
    {!Shard_pool} of server processes behind it.

    Requests are routed by content address — the first byte of the
    request digest (computed with {!Protocol.digest_of_params}, exactly
    as the shard itself would) modulo the shard count — so each request
    has a stable {e home shard}.  When the home shard is down or fails
    mid-forward, the request {e fails over} to the next live shard
    (home+1, home+2, …): requests are digest-keyed and idempotent, and
    all shards share the disk store, so the fallback returns the exact
    bytes the home shard would have.  Only when no shard can answer does
    the client see the retryable [DP-SRV-SHARD-DOWN].

    The router speaks the single-server line protocol verbatim:

    - [synth] — forwarded whole; the shard's response envelope is
      relayed byte-identically (the deterministic JSON printer makes the
      re-serialization exact);
    - [batch] — partitioned by home shard, forwarded as concurrent
      sub-batches, elements stitched back into request order;
    - [stats] — counters summed across every reporting shard
      (served/errors/cache/supervisor/latency histogram), plus a
      [router] section (routed/failovers/forward_errors, the hedge
      counters hedges_fired/hedge_wins/diverges and, with a journal,
      journal.replayed/redispatched) and the pool's summary and
      per-shard detail;
    - malformed lines, [ping] and [shutdown] — answered by the
      {!Listener} front it shares with {!Server}; a shutdown takes the
      whole pool down too.

    {2 Durability (opt-in via [journal])}

    With a {!Journal} attached, every content-addressed [synth] request
    is journaled {e admitted} before its forward and {e completed} after
    it; the digest that picks its home shard is the one it is journaled
    under.  A router that crashes (SIGKILL included) leaves the log
    behind; the next incarnation {e replays} it before accepting
    clients: [completed] entries are counted and re-served
    byte-identically from the digest-keyed store on demand, incomplete
    ones are re-dispatched to the home shard of their recorded digest
    ([DP-SRV-REPLAY] log lines) — safe, because digest idempotency makes
    a double dispatch converge on the same stored bytes.  Pair with
    [Shard_pool.state_file] so the new incarnation reattaches to the
    still-live fleet.  Batches ride on client-side retry idempotency and
    are not journaled.

    {2 Hedged dispatch (opt-in via [hedge])}

    When the home shard has not answered within a percentile of recent
    forward latencies, the request is duplicated to the next shard and
    the first answer wins — tail latency is bounded by the healthy
    sibling.  Both answers, whenever the straggler lands, are
    byte-compared as a free cross-shard audit; a mismatch is the typed
    [DP-SRV-DIVERGE] error (or a logged divergence count if the winner
    was already delivered), never a silently picked answer. *)

type config = {
  socket_path : string;
  pool : Shard_pool.t;  (** started by the caller; {!wait} shuts it down *)
  tech : Dp_tech.Tech.t;
      (** must match the shards' technology or router and shard would
          compute different digests *)
  forward_timeout_s : float;  (** per-shard forward deadline *)
  log : string -> unit;
  handle_signals : bool;  (** SIGTERM/SIGINT → graceful shutdown *)
  journal : Journal.t option;  (** durability + crash recovery *)
  hedge : bool;
      (** tail-latency hedging + divergence audit: a request is
          duplicated once its forward has been in flight for the p95 of
          recent forward latencies, clamped to [[25 ms, 1 s]] (1 s until
          enough latencies are recorded) *)
}

(** lcb_like tech, 60 s forward timeout, no signals, silent log, no
    journal, no hedging. *)
val default_config : socket_path:string -> pool:Shard_pool.t -> config

type t

(** {!Listener.bind} the front socket, replay the journal (if any),
    and start accepting.  The caller brings the pool up (or reattaches
    it) first, so replay forwards land on a live fleet. *)
val start : config -> t

(** The home shard for these parameters (digest prefix mod shard count;
    shard 0 when no digest can be computed).  Exposed for tests. *)
val home_of : t -> Protocol.synth_params -> int

(** Aggregated topology stats (the [stats] op's payload). *)
val stats_json : t -> Json.t

(** {!Listener.request_shutdown} on the front socket. *)
val request_shutdown : t -> unit

(** {!Listener.wait}, then shut the pool down too (and close the
    journal), and log [router drained: ] followed by the JSON object
    [{"router": …, "shard_pool": …}]: the [router] and [shard_pool]
    members of {!stats_json}, without the shards' sums (the shards are
    gone by then, so [router.shards_reporting] is 0). *)
val wait : t -> unit

(** [start] + [wait]. *)
val run : config -> unit
