(** Functional-equivalence checking: the synthesized netlist must compute
    the source expression's value modulo 2^W for every input assignment.
    This is the central correctness property of every allocation strategy. *)

open Dp_netlist

type mismatch = {
  assignment : (string * int) list;
  expected : int;
  actual : int;
}

val pp_mismatch : mismatch Fmt.t

(** [random_assignment rng widths] draws one uniformly random raw bit
    pattern for each [(name, width)], in order.  A width below 30 takes
    one [Random.State.int] draw; a wider one (up to 62) stitches 24-bit
    draws, low bits first. *)
val random_assignment :
  Random.State.t -> (string * int) list -> (string * int) list

(** [trials] uniformly random assignments drawn from a seeded generator
    by {!random_assignment}.  [signed] marks variables whose patterns are
    interpreted in two's complement when evaluating the expression
    (default: none). *)
val check_random :
  ?seed:int -> ?signed:(string -> bool) -> trials:int ->
  Netlist.t -> Dp_expr.Ast.t ->
  output:string -> width:int -> (unit, mismatch) result

(** Every assignment; requires the total input bit count to be at most 22.
    @raise Invalid_argument otherwise. *)
val check_exhaustive :
  ?signed:(string -> bool) -> Netlist.t -> Dp_expr.Ast.t ->
  output:string -> width:int ->
  (unit, mismatch) result
