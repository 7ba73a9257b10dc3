(** Cooperative cancellation and resource governance.

    A governor [t] carries the resource limits of one synthesis request —
    a wall-clock deadline, a cell budget, and a live-heap-word watermark —
    plus a sticky cancellation flag.  Every long-running loop in the
    pipeline (bit-matrix lowering, column reduction, netlist
    construction, STA/power annotation, simulation) polls it through
    {!check}: a cheap counter decrement on the fast path, with the real
    clock/GC/budget inspection only every [poll_every] calls.  When a
    limit trips, {!check} raises {!Dp_diag.Diag.E} with a typed
    diagnostic and keeps raising the {e same} diagnostic on every later
    call — cancellation is sticky, so an abort can never be lost by a
    downstream loop.

    Because the poll is cooperative, an abort always lands {e between}
    two well-formed pipeline steps: the netlist under construction
    remains structurally sound (every published cell is complete), and
    callers that only commit results on success — the synthesis cache,
    the server response path — are guaranteed to observe either a whole
    result or a typed error, never torn state.

    Diagnostics raised here:
    - [DP-CANCEL001] — the wall-clock deadline passed (retryable with a
      larger deadline).
    - [DP-CANCEL002] — external or injected cancellation ({!cancel},
      or a {!fault} test hook).
    - [DP-CANCEL003] — the cell budget was exceeded mid-construction
      (a client error: the request is too big for the configured
      budget).
    - [DP-BUDGET-MEM] — the OCaml heap grew past the live-word
      watermark (retryable on a less loaded server).

    Governors are installed {e ambiently}, per thread: {!with_ambient}
    binds a governor for the current thread for the duration of a
    callback, and the pipeline loops pick it up with {!ambient} — so
    the dozens of loops across the libraries need no extra parameters,
    and concurrent server workers each govern their own request without
    interference.  [Dp_fuzz.Budget.governor] builds one from a budget. *)

(** Checkpoint classes, one per pipeline stage that polls.  Tests use
    them to aim an injected fault at a specific loop. *)
type site = Lower | Reduce | Netlist | Sta | Prob | Sim

val site_name : site -> string

type t

(** [create ()] builds a governor.

    @param deadline_s relative wall-clock budget in seconds, measured
      from this call.
    @param max_cells cell budget checked by netlist construction.
    @param max_heap_words live-heap watermark (in words, from
      [Gc.quick_stat]).
    @param poll_every how many {!check} calls between real polls
      (default {!default_poll_every}; clamped to >= 1).
    @param fault test hook: on each real poll the hook sees the site
      and the running poll count, and returning [true] cancels with
      [DP-CANCEL002] — this is how the chaos tests trip an abort at an
      exact checkpoint class. *)
val create :
  ?deadline_s:float ->
  ?max_cells:int ->
  ?max_heap_words:int ->
  ?poll_every:int ->
  ?fault:(site -> int -> bool) ->
  unit ->
  t

val default_poll_every : int

(** Request cancellation from any thread ([DP-CANCEL002] at the
    victim's next checkpoint).  Idempotent; an already-tripped governor
    keeps its first diagnostic. *)
val cancel : ?reason:string -> t -> unit

(** The sticky diagnostic, once tripped. *)
val cancelled : t -> Dp_diag.Diag.t option

(** Number of real polls performed so far (observability/test hook). *)
val polls : t -> int

(** The cheap checkpoint.  [cells] is the caller's current cell count,
    checked against [max_cells] on real polls.  Raises [Dp_diag.Diag.E]
    once a limit trips, and on every call thereafter. *)
val check : ?site:site -> ?cells:int -> t -> unit

(** Like {!check} but forces a real poll regardless of the counter —
    used at loop entry so even a tiny loop observes a pending
    cancellation. *)
val poll_now : ?site:site -> ?cells:int -> t -> unit

(** [with_ambient gov f] binds [gov] as the current thread's governor
    for the duration of [f] (nesting restores the previous binding).
    If an external {!cancel} landed after [f]'s last checkpoint, the
    sticky diagnostic is raised here so the cancellation is never lost;
    a deadline that expired only in the final instants does not retract
    a completed result. *)
val with_ambient : t -> (unit -> 'a) -> 'a

(** The governor bound to the current thread, if any.  Cheap when no
    governor is installed anywhere in the process (a single int read). *)
val ambient : unit -> t option

(** [is_cancel_code c] — [true] on every code this module raises
    ([DP-CANCEL*] and [DP-BUDGET-MEM]): the bounded-abort family that
    callers treat as a resource verdict, not a failure. *)
val is_cancel_code : string -> bool

(** [retryable c] — [true] for the codes that may succeed on retry
    with more headroom ([DP-CANCEL001], [DP-CANCEL002],
    [DP-BUDGET-MEM]); [false] for [DP-CANCEL003] (the request itself
    exceeds the budget). *)
val retryable : string -> bool
