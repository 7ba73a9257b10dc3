(** Exact synthesis of the parallel-counter bodies.

    A branch-and-bound search over FA/HA compositions finds, for each
    counter kind, a gate-level body that is provably minimal under the
    lexicographic cost (area in HA units with FA = 2, then unit depth),
    with deterministic first-found tie-breaking.  Because every move
    preserves the invariant that the weighted signal functions sum to the
    input popcount, a goal-shaped result is functionally correct by
    construction.  Its output is the checked-in table {!Dp_tech.Recipe};
    the test suite runs the search to prove that table minimal. *)

(** Run the search.  Deterministic.
    @raise Invalid_argument if the kind is not a counter. *)
val synthesize : Dp_tech.Cell_kind.t -> Dp_tech.Recipe.t

(** Area in HA units (FA = 2, HA = 1) — the search's primary cost. *)
val area_units : Dp_tech.Recipe.t -> int

(** Unit depth (levels of FA/HA blocks) — the search's tie-break cost. *)
val depth : Dp_tech.Recipe.t -> int
