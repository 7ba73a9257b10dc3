(** The [dpsyn serve] server: a worker pool behind the {!Listener}
    socket front (shared with {!Router}: connections, malformed lines,
    [ping], [shutdown] and signals are handled there), fed through a
    {e bounded} queue (producers block once [queue_depth] jobs
    are waiting — backpressure instead of unbounded memory), a shared
    {!Dp_cache.Store}, and a per-request {!Dp_gov.Gov} governor carrying
    the wall-clock/cell/memory limits of {!Dp_fuzz.Budget} and
    [mem_watermark_words].  Every failure — malformed request, tripped
    limit, synthesis error — is an error envelope carrying the typed
    diagnostic; the connection and the worker both survive.

    Resilience layer (see [doc/protocol.md], "Failure semantics"):

    - Admission control runs upstream of the queue: a request whose
      statically estimated addend-matrix height exceeds the budget's
      [max_rows] is refused with [DP-SRV-TOOBIG] (a property of the
      request — do not retry it here), and once the process heap is
      over [mem_watermark_words] new work is shed with
      [DP-SRV-OVERLOAD] ([("reason", "memory")]; retry another shard
      or later) while admitted jobs drain.
    - Admitted jobs run under a thread-ambient governor: a deadline,
      cell budget, or heap watermark that trips mid-synthesis aborts at
      the next cooperative checkpoint as [DP-CANCEL*]/[DP-BUDGET-MEM],
      with no torn cache entry and the worker reused, not restarted.

    - Workers run under a {!Supervisor} boundary: an exception escaping
      a job is delivered as [DP-SRV-CRASH] (with a [.repro] crash dump
      under [crash_dir]), the worker restarts after exponential backoff,
      and a crash storm opens a circuit breaker that rejects {e new}
      work with [DP-SRV-OVERLOAD] while the queue drains.
    - A request's [deadline_ms] becomes an absolute deadline at enqueue
      time; one that expires while queued fails fast with
      [DP-SRV-DEADLINE], and one that starts in time runs under a budget
      clamped to the time remaining.
    - With [chaos] set, seeded faults ({!Chaos}) are injected to prove
      all of the above under fire; the response integrity guard
      ([guard_responses], forced on by chaos) lints outgoing netlists so
      a corrupted result is a [DP-SRV-CORRUPT] error, never a wrong
      answer.
    - With [handle_signals], SIGTERM/SIGINT trigger the {!Listener}'s
      graceful drain: stop accepting, finish queued jobs, log the final
      [stats] (latency histogram included), return from {!wait}. *)

type config = {
  socket_path : string;
  store : Dp_cache.Store.t option;  (** [None] disables caching *)
  workers : int;
  queue_depth : int;
  budget : Dp_fuzz.Budget.t;  (** applied to every request *)
  mem_watermark_words : int option;
      (** live-heap watermark ([Gc.quick_stat] words): above it, new
          requests are shed at admission with [DP-SRV-OVERLOAD] and
          in-flight requests abort at their next checkpoint with
          [DP-BUDGET-MEM]; [None] disables *)
  tech : Dp_tech.Tech.t;
  log : string -> unit;
  supervisor : Supervisor.policy;
  crash_dir : string option;
      (** where worker-crash [.repro] dumps go; [None] disables *)
  chaos : Chaos.config option;  (** seeded fault injection *)
  guard_responses : bool;
      (** lint outgoing netlists ([DP-SRV-CORRUPT] on findings); always
          on under chaos *)
  handle_signals : bool;  (** graceful drain on SIGTERM/SIGINT *)
}

(** In-memory cache, 2 workers, queue depth 64, 30 s/200k-cell budget,
    no memory watermark, default supervision policy, no crash dir, no
    chaos, no guard, no signal handling. *)
val default_config : socket_path:string -> config

type t

(** {!Listener.bind} the socket, spawn workers, {!Listener.serve}, and
    return immediately. *)
val start : config -> t

(** Block until a [shutdown] request, {!request_shutdown}, or — with
    [handle_signals] — SIGTERM/SIGINT has drained the queue and stopped
    the accept loop; then log one line through [config.log]: [drained: ]
    followed by the final {!stats_json}, latency histogram included. *)
val wait : t -> unit

(** [start] + [wait]. *)
val run : config -> unit

val request_shutdown : t -> unit

(** The [stats] payload (also used by the [stats] op): service counters,
    cache stats, supervisor/breaker state, chaos injection counts, and
    the latency histogram. *)
val stats_json : t -> Json.t
