(** Load-bearing certification of the counter library against a
    technology.

    [ensure tech] proves, for every counter body of {!Dp_tech.Recipe} and
    the given technology: exhaustive functional equivalence of the body
    against its arithmetic spec (all [2^m] assignments, every port);
    bit-level agreement of the technology's closed-form pin/port delays
    with the body's path delays, including path {e absence} (the 4:2
    carry-out's cin independence); area equality; and port-energy
    conservation.  The counter-aware strategies call this before
    building, so a miswired body or a drifted closed form stops synthesis
    rather than silently corrupting results.

    Memoized per technology value; the memo is locked, so worker threads
    may call [ensure] concurrently.

    @raise Dp_diag.Diag.E with code [DP-CTR001] on any mismatch. *)
val ensure : Dp_tech.Tech.t -> unit

(** [check tech r] runs the certificates on one body, which need not be
    the table's: the tests pass tampered bodies to show the gate rejects
    them.  Not memoized.
    @raise Dp_diag.Diag.E with code [DP-CTR001] on any mismatch. *)
val check : Dp_tech.Tech.t -> Dp_tech.Recipe.t -> unit
