(** A [dpsyn serve]: the settings its flags carry, and the two ways to
    run them — in this process ({!server_config}) or as a process of its
    own, whose argv {!argv} builds and which {!spawn}, the one way this
    library starts a server process, execs.  Every shard of a
    {!Shard_pool} and every journaled-soak router incarnation starts
    there. *)

(** [dpsyn serve]'s settings, one field per flag. *)
type serve = {
  dpsyn : string;  (** path of the [dpsyn] binary to exec *)
  shards : int;  (** [--shards]; < 2 serves a single server *)
  workers : int;
  queue_depth : int;
  budget : Dp_fuzz.Budget.t;  (** [--timeout], [--max-cells], [--max-rows] *)
  mem_watermark_mb : int option;
  cache_dir : string option;
  cache_capacity : int;
  no_cache : bool;
  tech_file : string option;
  crash_dir : string option;
  max_crashes : int;
  breaker_cooldown_s : float;
  guard_responses : bool;
  chaos : Chaos.config option;
  journal : string option;  (** sharded only *)
  hedge : bool;  (** sharded only *)
}

(** The one set of server defaults — [dpsyn serve]'s, and an in-process
    server's through {!server_config}: 2 workers, queue depth 64, a 30 s
    budget with {!Dp_fuzz.Budget.default}'s cell and row bounds, a
    256-entry LRU, {!Supervisor.default_policy}'s breaker, and nothing
    else on. *)
val default : dpsyn:string -> serve

(** [dpsyn serve --socket socket_path] with the settings' flags; a
    shard's settings have [shards < 2] and no [journal] or [hedge].
    @raise Invalid_argument when [chaos] is not {!Chaos.faults} at the
    default [slow_s], which [--chaos], [--mem-chaos] and [--net-chaos]
    build and nothing else can. *)
val argv : serve -> socket_path:string -> string array

(** The single server these settings describe, in this process (no
    signal handling). *)
val server_config :
  serve ->
  socket_path:string ->
  tech:Dp_tech.Tech.t ->
  log:(string -> unit) ->
  Server.config

(** Exec [argv] as a child with this process's stdin, stdout and stderr
    ({!Unix.create_process}: no OCaml code runs in the child); its pid.
    The child inherits the calling thread's signal mask (a pool's monitor
    thread blocks SIGTERM/SIGINT), which is harmless: [dpsyn serve]
    blocks both itself and claims them with a [sigwait] thread.
    @raise Unix.Unix_error when the process cannot be started. *)
val spawn : string array -> int
