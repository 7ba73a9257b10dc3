(** Seeded fault injection for the serving layer — the server-side
    counterpart of [Dp_verify.Inject].  A chaos-enabled server
    deliberately provokes each failure mode the resilience layer claims
    to survive, so the soak driver (and the [chaos-smoke] CI job) can
    assert the degradation paths instead of trusting them:

    - {!Worker_panic} — an exception escapes the worker's job boundary;
      the supervisor must convert it to [DP-SRV-CRASH], dump a repro,
      and restart the worker.
    - {!Slow_worker} — the worker stalls before synthesizing; queued
      requests with deadlines must fail fast with [DP-SRV-DEADLINE].
    - {!Truncate_response} — the response line is cut mid-byte and the
      connection closed; the client must see [DP-PROTO003], never a
      half-parsed JSON document.
    - {!Corrupt_cache} — an on-disk cache entry is overwritten with
      garbage and the in-memory LRU dropped; the store must degrade to
      a miss and re-synthesize, never serve the corrupt bytes.
    - {!Corrupt_result} — a [Dp_verify.Inject] mutation is applied to a
      {e deep copy} of the outcome netlist before delivery; the server's
      response lint guard must catch it as [DP-SRV-CORRUPT] instead of
      emitting a wrong answer.  (The copy keeps the cache clean.)

    Memory fault ([`Worker] site, opt-in — see {!default_config}):

    - {!Mem_squeeze} — the request runs under a one-word heap watermark,
      so its {!Dp_gov.Gov} governor must abort it at the first
      cooperative checkpoint with [DP-BUDGET-MEM] — a typed, retryable
      envelope, with the worker intact and no torn cache entry.

    Shard-topology faults ([`Shard] site, opt-in — see
    {!default_config}):

    - {!Kill_shard} — SIGKILL a live shard process mid-soak; the pool's
      waitpid monitor must detect it ([DP-SRV-SHARD-DOWN]), the router
      must fail requests over to a fallback shard, and the supervisor
      must restart it with backoff ([DP-SRV-SHARD-RESTART]).
    - {!Hang_shard} — SIGSTOP a shard so it holds its socket but answers
      nothing; only the health-check ping can catch this (waitpid sees a
      stopped child as alive), after which the pool SIGKILLs and
      restarts it.

    Network-level faults ([`Respond] site, opt-in):

    - {!Delay_response} — hold the response line back for [slow_s]
      before writing it; a hedging router must fire its duplicate and
      the client must still get exactly one well-formed answer.
    - {!Dup_response} — write the response line twice; the
      one-request-per-connection protocol means the reader takes the
      first and the duplicate dies with the connection — never a
      duplicate side effect.
    - {!Drop_mid_line} — write half the line, then hard-close the
      socket; the client must see [DP-PROTO003]/[DP-PROTO004] and its
      digest-idempotent retry must succeed.

    Router fault ([`Router] site, opt-in — ticked only by the journaled
    soak, which owns the router process):

    - {!Kill_router} — SIGKILL the routing front mid-flight; a restart
      with [--journal] must replay the log (completed entries re-served
      byte-identically, incomplete ones re-dispatched) and reattach to
      the still-live shard fleet.

    Faults fire every [every]-th tick, cycling deterministically from
    [seed]; with the same seed and request schedule a run is
    reproducible.  A server ticks its [`Worker] and [`Respond] sites as
    it serves.  The soak ticks its [`Shard] or [`Router] schedule once
    per answered request (any outcome), so there [every] = K means one
    fault after every Kth answer. *)

type fault =
  | Worker_panic
  | Slow_worker
  | Truncate_response
  | Corrupt_cache
  | Corrupt_result
  | Mem_squeeze
  | Kill_shard
  | Hang_shard
  | Delay_response
  | Dup_response
  | Drop_mid_line
  | Kill_router

val all : fault list

(** The single-process fault classes — the default [faults] list. *)
val process_faults : fault list

(** {!Mem_squeeze}; opt-in ([faults = process_faults @ mem_faults]) so
    existing seeded schedules keep their fault sequence. *)
val mem_faults : fault list

(** {!Kill_shard} and {!Hang_shard}; meaningful only at the [`Shard]
    site, which only a sharded topology ticks. *)
val shard_faults : fault list

(** {!Delay_response}, {!Dup_response}, {!Drop_mid_line}; [`Respond]
    site, opt-in for the same schedule-stability reason. *)
val net_faults : fault list

(** {!Kill_router}; meaningful only at the [`Router] site, which only
    the journaled soak ticks. *)
val router_faults : fault list

(** The fault list of a [dpsyn serve --chaos] process (and of a soak's
    [--chaos]): {!process_faults}, then {!mem_faults} with [mem] and
    {!net_faults} with [net]. *)
val faults : mem:bool -> net:bool -> fault list

val fault_name : fault -> string

(** Raised by {!Worker_panic} at the worker's job boundary. *)
exception Panic

type config = {
  seed : int;
  every : int;  (** inject on every Nth tick; <= 0 disables *)
  slow_s : float;  (** {!Slow_worker} stall *)
  faults : fault list;  (** the classes to cycle through *)
}

(** Defaults to {!process_faults} only, so existing single-process chaos
    schedules (seeded tests included) are unaffected by the shard
    classes; a sharded soak opts in with [faults = Chaos.shard_faults]
    on its own chaos instance. *)
val default_config : config

type t

val create : config -> t

(** The configured {!Slow_worker} stall. *)
val slow_s : t -> float

(** [tick t ~site] — one potential injection point.  Returns the fault
    to inject, already filtered to the classes meaningful at [site]
    ([`Worker], [`Respond], [`Shard] or [`Router]), or [None].
    Thread-safe; the global tick counter makes the schedule
    deterministic per run. *)
val tick : t -> site:[ `Worker | `Respond | `Shard | `Router ] -> fault option

(** Seeded uniform pick in [\[0, n)] — victim-shard selection without
    touching the wall clock.  @raise Invalid_argument on [n < 1]. *)
val pick : t -> int -> int

(** Injections delivered so far, per fault (for stats). *)
val injected : t -> (string * int) list

(** Overwrite one on-disk entry of [store] with garbage (seeded pick)
    and drop the in-memory LRU so the next lookup must take the disk
    path.  No-op without a disk store or with no entries yet. *)
val corrupt_cache_entry : t -> Dp_cache.Store.t -> unit

(** Apply a seeded [Dp_verify.Inject] mutation to a deep copy of the
    netlist; returns the corrupted copy (or [None] if no mutation
    applied). *)
val corrupt_netlist : t -> Dp_netlist.Netlist.t -> Dp_netlist.Netlist.t option
