(** The gate-level FA/HA bodies of the parallel counters, as checked-in
    data.

    Each entry is the minimal body under the lexicographic cost (area in
    HA units with FA = 2, then unit depth) that a branch-and-bound search
    over FA/HA compositions finds, with deterministic first-found
    tie-breaking.  The search lives in the test suite, which asserts that
    it reproduces this table exactly; [Dp_counters.Certify] checks every
    entry against its arithmetic spec and against the technology's
    closed-form delays, areas and energies before a counter strategy
    builds.  [Netlist]'s constant-pin fallback, [Bitsim]'s boolean
    evaluation and [Dp_counters] all read these entries, so each body is
    written once. *)

(** A signal inside a recipe: an input pin or a block output
    (port 0 = sum, port 1 = carry). *)
type sig_ref = Pin of int | Out of { block : int; port : int }

(** One FA (3 args) or HA (2 args) block. *)
type block = { fa : bool; args : sig_ref array }

(** A body: blocks in dependency order (arguments only reference pins or
    earlier blocks) and the three output ports. *)
type t = { kind : Cell_kind.t; blocks : block array; outputs : sig_ref array }

(** The body of a counter kind.
    @raise Invalid_argument if the kind is not a counter. *)
val of_kind : Cell_kind.t -> t

val fa_count : t -> int
val ha_count : t -> int

(** [eval r ~pin ~fa ~ha] runs the body over any value type: [pin i] is
    the value of input pin [i], and [fa]/[ha] map a block's arguments, in
    recipe order, to its [(sum, carry)].  Blocks are applied in order;
    the result is the three output ports. *)
val eval :
  t ->
  pin:(int -> 'a) ->
  fa:('a -> 'a -> 'a -> 'a * 'a) ->
  ha:('a -> 'a -> 'a * 'a) ->
  'a * 'a * 'a
