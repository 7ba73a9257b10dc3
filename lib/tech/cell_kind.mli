(** Kinds of cells available in the target technology.

    An [Fa] (full adder) sums three bits of the same weight into a sum bit
    (port 0) and a carry-out bit of the next weight (port 1).  An [Ha] (half
    adder) does the same for two bits.

    The generalized parallel counters [C53], [C63] and [C73] sum 5/6/7 bits
    of weight [j] into three output bits: port 0 at weight [j], port 1 at
    weight [j+1] and port 2 at weight [j+2] — the binary digits of the input
    population count.  [C42] is the 4:2 compressor: pins 0-3 carry the four
    addends and pin 4 the chain carry-in; port 0 is the sum (weight [j]),
    port 1 the carry and port 2 the chain carry-out (both weight [j+1]).
    The carry-out depends only on pins 0-2, never on the carry-in, which is
    what lets 4:2 rows chain without a ripple.  Every counter's gate-level
    body is an entry of [Recipe], certified in [Dp_counters].

    [And_n n], [Or_n n] and [Xor_n n] are [n]-input single-output gates
    ([n >= 2]); wide instances are priced as balanced trees of 2-input
    gates. *)

type t =
  | Fa
  | Ha
  | C42
  | C53
  | C63
  | C73
  | And_n of int
  | Or_n of int
  | Xor_n of int
  | Not
  | Buf

val equal : t -> t -> bool

(** Number of input pins. *)
val arity : t -> int

(** Number of output ports: 2 for [Fa]/[Ha] (sum, carry), 3 for the
    parallel counters, 1 otherwise. *)
val output_count : t -> int

(** True for the multi-output parallel-counter kinds [C42]/[C53]/[C63]/
    [C73]. *)
val is_counter : t -> bool

(** A dense int code per kind, which is how a netlist stores it: the
    six adder kinds and [Not]/[Buf] take 0-7, and an [n]-input gate
    [8 + 3n], [9 + 3n] or [10 + 3n] for AND, OR and XOR.
    @raise Invalid_argument on a negative gate width. *)
val code : t -> int

(** The inverse of {!code}.  The kinds of gates up to 64 inputs wide are
    shared values, so decoding them allocates nothing.
    @raise Invalid_argument on a negative code. *)
val of_code : int -> t

val name : t -> string
val pp : t Fmt.t
