(** Binary min-heap of nets, the shared selection core of the greedy
    column reducers (SC_T, SC_LP and the split and fill phases of the
    counter-aware {!Gpc}).

    Each net's two keys are read from the netlist once, when it enters
    the heap, and kept in flat [float array]s beside an [int array] of
    nets.  The order is [(k1, k2, net id)], each key compared with
    [Float.compare].  The net id makes it a total order on distinct nets,
    so the pop sequence is the fully sorted order whatever the heap's
    shape: popping the k smallest of a pool is the same as sorting it and
    taking the first k.  {!Sc_t.heap_keys} and {!Sc_lp.heap_keys} give the
    key pairs under which this order equals their [compare_nets].

    Net annotations (arrival, probability) never change after creation,
    so a cached key never goes stale.  Keys must not be NaN: [Float.compare]
    puts NaN first, so a NaN |q| would pop before every other net, where
    [compare_nets] sorts it last. *)

open Dp_netlist

type key =
  | Zero  (** [0.0] for every net: the component never decides *)
  | Arrival  (** [Netlist.arrival] *)
  | Neg_abs_q  (** [-. |Netlist.q|]: largest |q| first *)

type t

(** Floyd heap construction, O(n). *)
val of_list : k1:key -> k2:key -> Netlist.t -> Netlist.net list -> t

val length : t -> int

(** O(log n). *)
val push : t -> Netlist.net -> unit

(** Remove and return the minimum, O(log n).
    @raise Invalid_argument when empty. *)
val pop : t -> Netlist.net

(** Pop everything, in ascending order.  Empties the heap. *)
val drain : t -> Netlist.net list
