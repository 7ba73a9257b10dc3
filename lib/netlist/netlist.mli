(** Gate-level netlist with build-time annotation.

    A netlist is a growable set of nets (single-bit signals) driven by
    primary inputs, constants, or cell output ports.  FA/HA cells have two
    output ports (sum = port 0, carry = port 1), the parallel counters
    three (see {!Dp_tech.Cell_kind}); all other cells have one.

    The builder computes each new net's {e arrival time} (from the
    technology's pin-to-pin delays, Sec. 3.1 of the paper) and {e
    1-probability} (zero-delay model, Sec. 4.1) at creation, because the
    allocation algorithms select among nets they have just created.  The
    [Dp_timing.Sta] and [Dp_power.Prob] engines recompute both from scratch
    as an independent cross-check.

    Gate constructors perform light structural simplification: constant
    folding, duplicate-input removal, double-negation elimination, and
    structural hashing of NOT/AND/OR gates.  A full adder with a constant
    input degrades to a half adder (and further to plain gates), which is
    how the pseudo-zero addend of algorithm SC_LP turns into an HA.

    The netlist is one flat arena: each net is an int code plus an
    arrival and a probability in float columns, and each cell is a kind
    code ({!Dp_tech.Cell_kind.code}), a first pin and a pin count into one
    pin column, and a first output net.  The two- and three-input
    builders ({!and2}, {!or2}, {!xor2}, {!ha}, {!fa}) write a new cell's
    annotations straight into those columns.

    There is one way to read a cell: by index, as {!cell_kind},
    {!pin_count}, {!pin} and {!output_net}.  Every pass in the library
    reads cells so, from synthesis and serving to the analyses that
    recompute timing, probability and switching from scratch.  What
    drives a net is read by {!driving_cell} and {!driving_port}, or
    decoded whole by {!driver} where an input, a constant or a
    {!Mutate} override matters. *)

type net = int

type driver =
  | From_input of { var : string; bit : int }
  | From_const of bool
  | From_cell of { cell : int; port : int }

(** A cell decoded from the arena by {!cell}: its kind and its input
    nets by pin.  No library pass reads it: like {!cell} and
    {!cell_output_nets}, it is kept for [perfbench/compose.ml] and the
    test references, and leaves the library with compose.ml. *)
type cell = { kind : Dp_tech.Cell_kind.t; inputs : net array }

type t

(** Captures the calling thread's ambient {!Dp_gov.Gov} governor (if one
    is installed): every subsequent cell construction polls it, so a
    deadline, cell budget, or memory watermark aborts the build at a
    cell boundary with the netlist still structurally sound. *)
val create : tech:Dp_tech.Tech.t -> t

val tech : t -> Dp_tech.Tech.t

(** The governor captured at {!create}, for the analysis passes to poll
    in their own loops. *)
val gov : t -> Dp_gov.Gov.t option

(** Drop the captured governor.  Call when the netlist outlives its
    request — before caching or marshalling it — so a finished artifact
    cannot resurrect a stale (expired or cancelled) governor into a
    later request's analysis passes. *)
val detach_gov : t -> unit
val net_count : t -> int
val cell_count : t -> int

(** What drives [n], as a record built on each call for a cell output.
    Readers that run once per net or per pin on a request's path use
    {!driving_cell} instead. *)
val driver : t -> net -> driver

(** The cell that {!driver} names for [n], or [-1] when [n] is a primary
    input or a constant, without allocating.  A {!Mutate.set_driver}
    override is answered as {!driver} answers it. *)
val driving_cell : t -> net -> int

(** The output port of {!driving_cell} that drives [n], as {!driver}
    names it; [-1] when no cell drives [n]. *)
val driving_port : t -> net -> int

(** Arrival time annotated at construction. *)
val arrival : t -> net -> float

(** 1-probability annotated at construction. *)
val prob : t -> net -> float

(** [prob t n -. 0.5] — the paper's q-value. *)
val q : t -> net -> float

(** [Float.compare] of two nets' arrivals.  It returns an int, so a
    caller in another module compares annotations without boxing them. *)
val compare_arrival : t -> net -> net -> int

(** [Float.compare] of two nets' |q|. *)
val compare_abs_q : t -> net -> net -> int

(** {2 Cells by index} *)

(** The kind of cell [i], decoded from its code without allocating. *)
val cell_kind : t -> int -> Dp_tech.Cell_kind.t

(** The number of input pins of cell [i]: its kind's arity, unless a
    {!Mutate.set_cell} override gave it another. *)
val pin_count : t -> int -> int

(** [pin t i k] is the net on input pin [k] of cell [i].
    @raise Invalid_argument unless [0 <= k < pin_count t i]. *)
val pin : t -> int -> int -> net

(** [output_net t cell ~port] is the net on output port [port] of
    [cell]; [port] must be below the cell kind's output count. *)
val output_net : t -> int -> port:int -> net

(** Cell [i] as a freshly built record, for [perfbench/compose.ml] and
    the test references only (see {!type-cell}). *)
val cell : t -> int -> cell

(** Output nets of a cell, indexed by port: [output_net] of each of its
    kind's ports.  For [perfbench/compose.ml] and the test references
    only. *)
val cell_output_nets : t -> int -> net array

(** Declare a primary input bus; returns its nets, LSB first.  Arrivals
    default to 0.0 and probabilities to 0.5.
    @raise Invalid_argument on duplicate names or length mismatches. *)
val add_input :
  ?arrival:float array -> ?prob:float array -> t -> string -> width:int -> net array

(** The constant net (cached; at most one of each polarity exists). *)
val const : t -> bool -> net

val is_const : t -> net -> bool -> bool
val const_value : t -> net -> bool option
val not_ : t -> net -> net
val buf : t -> net -> net

(** Two-input AND and OR: [and2 t a b] is [and_n t [a; b]], and [or2]
    likewise, without building the list. *)
val and2 : t -> net -> net -> net

val or2 : t -> net -> net -> net
val and_n : t -> net list -> net
val or_n : t -> net list -> net
val xor2 : t -> net -> net -> net
val xor_n : t -> net list -> net

(** [ha t a b] is [(sum, carry)]. *)
val ha : t -> net -> net -> net * net

(** [fa t a b c] is [(sum, carry)]. *)
val fa : t -> net -> net -> net -> net * net

(** Generalized parallel counters, [(s0, s1, s2)] with [s0] at the input
    weight, [s1] one weight up and [s2] two weights up — the binary digits
    of the input population count.  A constant input degrades the counter
    into its {!counter_body} with the constant folded away.
    @raise Invalid_argument unless given exactly 5/6/7 nets. *)
val c53 : t -> net array -> net * net * net

val c63 : t -> net array -> net * net * net
val c73 : t -> net array -> net * net * net

(** 4:2 compressor: inputs [[| x1; x2; x3; x4; cin |]], result
    [(sum, carry, cout)] with [sum] at the input weight and both [carry]
    and [cout] one weight up.  [cout] depends only on [x1..x3], never on
    [cin], so 4:2 rows chain without a ripple.  A constant input degrades
    it into its {!counter_body}.
    @raise Invalid_argument unless given exactly 5 nets. *)
val c42 : t -> net array -> net * net * net

(** [counter_body t kind pins] builds the counter's FA/HA body
    ({!Dp_tech.Recipe.of_kind}, certified in [Dp_counters]) through {!fa}
    and {!ha} and returns its three output nets: the discrete form of the
    counter, which the monolithic cell must equal.
    @raise Invalid_argument on an arity mismatch or a non-counter kind. *)
val counter_body :
  t -> Dp_tech.Cell_kind.t -> net array -> net * net * net

(** @raise Invalid_argument on duplicate names. *)
val set_output : t -> string -> net array -> unit

(** Declared inputs/outputs in declaration order. *)
val inputs : t -> (string * net array) list

val outputs : t -> (string * net array) list

(** @raise Invalid_argument if absent. *)
val find_output : t -> string -> net array

(** Raw, invariant-{e breaking} setters.  They bypass every builder
    invariant (driver/output consistency, topological net ordering,
    annotation correctness) and leave the structural-hashing caches stale.
    Their one intended client is [Dp_verify.Inject], which corrupts
    known-good netlists on purpose to prove the checkers detect the
    corruption.  Never use them in synthesis code.

    A cell's outputs stay where they were: retyping a cell changes what
    {!cell_kind} answers and so how many ports a reader expects, not
    which nets the cell drives. *)
module Mutate : sig
  val set_driver : t -> net -> driver -> unit
  val set_prob : t -> net -> float -> unit

  (** [set_cell t i kind pins] retypes cell [i] to [kind] and rewires it
      to [pins], whatever their number; the pins are appended to the pin
      column. *)
  val set_cell : t -> int -> Dp_tech.Cell_kind.t -> net array -> unit

  (** Rewire one input pin of a cell.
      @raise Invalid_argument if the cell has no such pin. *)
  val set_cell_input : t -> cell:int -> pin:int -> net -> unit
end

(** Total cell area under the netlist's technology, summed in cell order
    from a table of each kind's area. *)
val area : t -> float

(** Latest arrival over all declared output nets. *)
val max_output_arrival : t -> float
