(** Zero-delay signal-probability propagation (the paper's Sec. 4.1 model):
    inputs are independent random bits; each cell output's 1-probability is
    derived analytically.  For the full adder the paper's q-algebra is used,
    with q(x) = p(x) − 0.5:

    q(s) = 4 qx qy qz,  q(c) = 0.5 (qx + qy + qz) − 2 qx qy qz.

    A half adder is the z = 0 (q = −0.5) specialization. *)

open Dp_netlist

val fa_sum_q : float -> float -> float -> float
val fa_carry_q : float -> float -> float -> float
val ha_sum_q : float -> float -> float
val ha_carry_q : float -> float -> float

(** 1-probability of every net, indexed by net id. *)
val probabilities : Netlist.t -> float array

(** True iff the from-scratch propagation matches the builder's incremental
    annotation within [eps]. *)
val agrees_with_annotation : ?eps:float -> Netlist.t -> bool
