(** Two-queue pool of nets, the shared selection core of the greedy
    column reducers: SC_T, SC_LP and the counter-aware {!Gpc}, whose
    split phase sorts with it and whose fill phase is SC_T's loop.

    {!of_list} sorts the column once into a run; {!push} appends to a
    FIFO of the sums the reducer feeds back; {!pop} takes the lesser of
    the two heads.  This is the two-queue method for Huffman trees (van
    Leeuwen, ICALP 1976), and it works here for the same reason: under
    the primary key, no FA sum the reducers push comes before the sum
    pushed just before it.  An FA sum arrives one delay after its latest
    input, and |q(sum)| = 4|qx qy qz| is at most its inputs' smallest
    |q|; the reducers take their inputs in ascending order, so the sums'
    arrivals never fall and their |q| never rise.

    The order is [(k1, k2, net id)].  The net id makes it a total order
    on distinct nets, so the pop sequence is the fully sorted order
    whatever the structure: popping the k smallest of a pool is the same
    as sorting it and taking the first k.  {!Sc_t.queue_keys} and
    {!Sc_lp.queue_keys} give the key pairs under which this order equals
    their [compare_nets].

    A push that is out of order is still correct: it is inserted from
    the FIFO's tail, shifting the later sums one slot each.  That happens
    on secondary-key ties (the combined tie-breaks: a new sum with the
    same arrival but a larger |q|, or the same |q| but an earlier
    arrival) and when an FA with a constant input folds to an existing
    net or to a faster HA.

    Keys are read from the netlist at every comparison; net annotations
    never change after creation. *)

open Dp_netlist

type key =
  | Zero  (** the component never decides *)
  | Arrival  (** ascending [Netlist.arrival] *)
  | Neg_abs_q  (** ascending [-. |Netlist.q|]: largest |q| first *)

type t

(** Sorts the nets once, O(n log n). *)
val of_list : k1:key -> k2:key -> Netlist.t -> Netlist.net list -> t

val length : t -> int

(** O(1) when [net] is not before the last net pushed and still held,
    else one slot per later sum. *)
val push : t -> Netlist.net -> unit

(** Remove and return the minimum, O(1).
    @raise Invalid_argument when empty. *)
val pop : t -> Netlist.net

(** Pop everything, in ascending order.  Empties the pool. *)
val drain : t -> Netlist.net list
