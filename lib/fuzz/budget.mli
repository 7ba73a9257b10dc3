(** Resource-bounded synthesis: wall-clock, matrix-height and gate-count
    ceilings so pathological inputs fail {e gracefully} with a typed
    [Dp_diag.Diag.t] instead of hanging the process or exhausting memory.
    The fuzz oracle and the synthesis server both turn a budget into
    limits here: {!check_static} refuses a case before any work,
    {!governor} bounds the work itself, and {!check_cells} judges the
    finished netlist.

    Diagnostics: [DP-BUDGET003] static addend-row (matrix-height)
    ceiling, [DP-CANCEL003] gate-count ceiling; the governor adds
    [DP-CANCEL001] (deadline) and the rest of the [Dp_gov.Gov] family. *)

type t = {
  timeout_s : float;  (** wall-clock budget per synthesis; <= 0 disables *)
  max_cells : int;  (** netlist cell ceiling; <= 0 disables *)
  max_rows : int;  (** estimated addend-row ceiling; <= 0 disables *)
}

(** 5 s, 200k cells, 4096 rows. *)
val default : t

val unlimited : t

(** [DP-BUDGET003] (context [estimated_rows], [max_rows]) if a
    saturating static estimate of the addend rows the bit-level lowering
    would build for the widest port exceeds [max_rows] — products
    multiply row counts by the narrower operand's width, additions sum
    them.  An upper-bound heuristic: cheap (no normalization, which
    itself can blow up) and monotone, so genuinely huge multiply chains
    trip the ceiling before any work happens. *)
val check_static : t -> Case.t -> (unit, Dp_diag.Diag.t) result

(** [DP-CANCEL003] if the built netlist exceeds [max_cells] — the same
    verdict the governor's in-loop cell check gives, made exactly: that
    check only looks every [Dp_gov.Gov.default_poll_every] checkpoints,
    and it never sees a netlist served from a cache. *)
val check_cells : t -> Dp_netlist.Netlist.t -> (unit, Dp_diag.Diag.t) result

(** [governor ?deadline ?max_heap_words b] is a fresh [Dp_gov.Gov]
    governor carrying [b]'s wall-clock and cell limits.  Its deadline is
    [timeout_s] from now, tightened to the absolute [deadline]
    ([Unix.gettimeofday] clock) when one is given: the server derives it
    from the client's deadline, so time spent queueing counts.  A
    deadline already passed trips at the first checkpoint.
    [max_heap_words] is passed through as the heap watermark.

    The governor bounds only work still in progress: run a synthesis
    under it with [Dp_gov.Gov.with_ambient], and a deadline that passes
    after the last checkpoint does not retract a finished result. *)
val governor : ?deadline:float -> ?max_heap_words:int -> t -> Dp_gov.Gov.t
