(** OS-level supervision for a fleet of shard server processes.

    Each shard is a full server process listening on its own Unix
    socket; all shards share the content-addressed disk store (safe
    since {!Dp_cache.Store} stages writes through unique temp files
    behind an advisory per-digest lock).  The pool spawns the fleet and
    keeps it alive:

    - a {e monitor} thread polls [waitpid WNOHANG] and notices any shard
      that exits or is killed ([DP-SRV-SHARD-DOWN] in the log), then
      restarts it with exponential backoff under a per-shard
      {!Supervisor} restart-intensity breaker ([DP-SRV-SHARD-RESTART]) —
      a shard that keeps dying stops being restarted until the breaker's
      cooldown passes;
    - a {e health} thread sends each live shard a [ping] on a period; a
      shard that fails [health_failures] consecutive probes — the
      signature of a {e hung} process, which waitpid alone can never
      catch — is SIGKILLed and takes the same death→backoff→restart
      path.

    The pool does no routing: {!Router} sits in front and consults
    {!is_up}/{!socket_of} to fail requests over while a shard is down. *)

(** How a shard comes up.  [Spawn_fork f] runs [f] in the forked child
    (the pool [_exit]s behind it, so parent [at_exit] state never runs
    twice) — convenient for tests and the in-process soak.  [Spawn_exec
    f] turns the child into a fresh image via [execv] on the argv [f]
    returns — the robust choice for the CLI, immune to threads and locks
    inherited across [fork]. *)
type spawn =
  | Spawn_fork of (id:int -> socket_path:string -> unit)
  | Spawn_exec of (id:int -> socket_path:string -> string array)

type config = {
  shards : int;
  socket_for : int -> string;  (** shard id → its socket path *)
  spawn : spawn;
  health_period_s : float;  (** delay between health sweeps *)
  health_timeout_s : float;  (** per-ping response deadline *)
  health_failures : int;  (** consecutive failures before SIGKILL *)
  startup_grace_s : float;
      (** failed pings don't count against a shard younger than this —
          it may still be binding its socket *)
  stable_s : float;
      (** uptime after which an incarnation counts as a supervisor
          success (resets consecutive-crash backoff, closes a half-open
          breaker) *)
  poll_period_s : float;  (** waitpid poll period *)
  grace_s : float;  (** shutdown: SIGTERM → this long → SIGKILL *)
  supervisor : Supervisor.policy;
  log : string -> unit;
  state_file : string option;
      (** persist which pid serves which shard socket (written
          atomically on every spawn, adoption and death).  A pool
          started with the same path after its owner crashed {e
          reattaches} to recorded pids that are still alive and answer a
          ping, instead of respawning the fleet — a router crash no
          longer takes the shards down.  Removed on clean {!shutdown}.
          Adopted processes are not the pool's children: exits are
          detected by existence probes ([kill 0]) rather than waitpid,
          and hangs by the health ping as usual. *)
}

(** 250 ms health period / 1 s ping timeout / 3 strikes, 5 s startup
    grace, 2 s stability, 30 ms waitpid poll, 5 s shutdown grace,
    {!Supervisor.default_policy}, silent log, no state file. *)
val default_config :
  socket_for:(int -> string) -> spawn:spawn -> shards:int -> config

type t

(** Spawn every shard and start the monitor and health threads.
    Ignores SIGPIPE process-wide (shards may die mid-write).
    @raise Invalid_argument on [shards < 1]. *)
val start : config -> t

val shard_count : t -> int

(** The shard's socket path (fixed across restarts). *)
val socket_of : t -> int -> string

(** Is the shard's current incarnation believed live?  [false] while it
    is in restart backoff or stopped.  Advisory: a shard can die between
    this answer and a connect — callers treat connect failure as "down"
    and fail over. *)
val is_up : t -> int -> bool

(** Block until every shard answers a ping, or the timeout (default
    10 s) passes; [true] on success. *)
val wait_all_up : ?timeout_s:float -> t -> bool

(** Chaos/test hook: deliver [signal] to the shard's current
    incarnation ([false] if it has no live process).  SIGSTOP simulates
    a hang only the health check can catch. *)
val signal_shard : t -> int -> int -> bool

(** (total restarts-after-death, total health-check SIGKILLs). *)
val counters : t -> int * int

(** The (id, pid, socket) of every shard a [state_file] records; [[]]
    when the file is missing, unreadable or of another schema.  What a
    pool reattaches to, and what an owner that SIGKILLed the pool's
    process must reap itself. *)
val read_state : string -> (int * int * string) list

(** Pool summary plus per-shard detail (state, pid, restarts,
    health_kills, breaker counters) — embedded in the router's
    aggregated stats. *)
val stats_json : t -> Json.t

(** Stop supervising, then terminate the fleet: SIGCONT+SIGTERM, a
    bounded drain, SIGKILL for stragglers, and a full reap.  Socket
    files are removed.  Idempotent. *)
val shutdown : t -> unit
