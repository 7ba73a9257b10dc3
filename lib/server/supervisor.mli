(** Worker supervision policy: restart-intensity accounting plus a
    circuit breaker over the server's admission edge.

    Every worker crash (an exception escaping the per-job boundary) is
    {!record_crash}ed.  Crashes inside the sliding [window_s] count
    toward the restart intensity; once they exceed [max_crashes] the
    breaker {e opens} — {!admit} rejects new work with [DP-SRV-OVERLOAD]
    while jobs already queued drain normally.  After [cooldown_s] the
    breaker goes {e half-open}: exactly one trial request is admitted at
    a time; a trial that completes without a crash closes the breaker
    (and clears the window), a crash while half-open re-opens it.

    Restart backoff is exponential in the number of {e consecutive}
    crashes ([backoff_base_s * 2^(n-1)], capped at [backoff_max_s]) and
    resets on the first successfully processed job.

    All operations are thread-safe. *)

type policy = {
  max_crashes : int;  (** crashes tolerated per window before opening *)
  window_s : float;  (** restart-intensity window *)
  cooldown_s : float;  (** open → half-open delay *)
  backoff_base_s : float;  (** first restart delay *)
  backoff_max_s : float;  (** backoff ceiling *)
}

(** 5 crashes / 30 s window, 5 s cooldown, 50 ms–2 s backoff. *)
val default_policy : policy

type breaker = Closed | Open | Half_open

type t

val create : ?policy:policy -> log:(string -> unit) -> unit -> t

(** Admission control for {e new} work.  [Ok trial] admits ([trial] is
    true for the single half-open probe — pass it to {!record_success}
    / {!record_crash} so the breaker learns the probe's fate);
    [Error d] is the [DP-SRV-OVERLOAD] rejection. *)
val admit : t -> (bool, Dp_diag.Diag.t) result

(** A worker crashed.  Returns the backoff to sleep before the worker
    takes its next job. *)
val record_crash : t -> trial:bool -> float

(** A job completed without crashing the worker. *)
val record_success : t -> trial:bool -> unit

val breaker_state : t -> breaker
val breaker_name : breaker -> string

(** (crashes total, restarts total, rejected-while-open total). *)
val counters : t -> int * int * int
