(** Dadda-style minimal compression — a second fixed-structure baseline.
    Each stage reduces every column to the next Dadda target height
    (…, 9, 6, 4, 3, 2) using as few FAs/HAs as possible, counting
    same-stage carries toward the receiving column's target. *)

open Dp_netlist
open Dp_bitmatrix

(** Reduce [matrix] in place to two rows. *)
val allocate : Netlist.t -> Matrix.t -> unit

(** The staged driver that {!allocate} and {!Gpc.allocate_dadda} run:
    while the matrix is taller than two, one stage brings every column,
    rightmost first, down to [target height], its same-stage carries
    joining the next column's pool.  Within a column the pool is a FIFO
    in listed order; with [c42], 4:2 compressors remove four rows at a
    time while the excess over the target is three or more, then FAs and
    an HA remove the rest. *)
val staged :
  target:(int -> int) -> c42:bool -> Netlist.t -> Matrix.t -> unit
