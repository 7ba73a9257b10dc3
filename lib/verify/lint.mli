(** Structural integrity checking over built netlists.

    The builder in [Dp_netlist.Netlist] maintains several invariants by
    construction (every net has a driver, cells consume only
    already-existing nets, annotations match drivers).  Nothing re-checks
    them afterwards, yet the whole flow — the simulator's single forward
    pass, [Topo.levels], the switching model — silently relies on them.
    [run] makes the invariants machine-checkable: it sweeps a netlist once
    and returns a typed list of findings instead of raising, so callers
    can gate synthesis ({!Dp_flow.Synth.run}'s [?check_level]), print a
    report (the [dpsyn lint] subcommand), or assert cleanliness in tests.

    The checker is the detection half of a defense-in-depth pair: its
    teeth are proven by [Inject], which corrupts known-good netlists and
    asserts every corruption is caught here or by [Dp_sim.Equiv]. *)

open Dp_netlist

(** What a finding is about. *)
type rule =
  | Dangling_ref
      (** a cell pin, cell output slot or declared port names a net id
          outside [0, net_count) *)
  | Bad_driver
      (** a net's [From_cell] driver names a missing cell or port *)
  | Driver_mismatch
      (** net [n] claims cell [c] port [p] as driver but the cell's output
          table maps that port to a different net — crossed wires *)
  | Multiply_driven  (** one cell output port drives two or more nets *)
  | Topo_violation
      (** a cell consumes a net no older than its own outputs; breaks the
          forward-pass evaluation order of the simulator and [Topo] *)
  | Combinational_cycle  (** a dependency cycle through cells *)
  | Arity_violation
      (** input count disagrees with the cell kind's signature; includes
          n-ary gates with fewer than 2 inputs (output nets follow from
          the kind, so their count cannot) *)
  | Prob_range  (** an annotated 1-probability outside [0, 1] or NaN *)
  | Const_prob
      (** a constant net annotated with a probability other than its
          value — the signature of a flipped constant *)
  | Arrival_range  (** a NaN or infinite arrival-time annotation *)
  | Unreachable_cell
      (** no output of the cell reaches any declared output — [Info]
          severity: clean construction leaves dead gates behind wherever
          a dropped MSB carry-out had its own gate *)
  | No_outputs  (** the netlist declares no outputs at all *)
  | Empty_port  (** a declared input or output bus of width 0 *)

type loc = Net of Netlist.net | Cell of int | Port of string | Netlist

type finding = {
  rule : rule;
  severity : Dp_diag.Diag.severity;
  loc : loc;
  message : string;
}

val rule_name : rule -> string
val pp_finding : finding Fmt.t

(** Full sweep; findings in rule-check order.  Never raises, even on
    netlists corrupted enough to defeat the accessors (out-of-range ids
    are reported, not chased). *)
val run : Netlist.t -> finding list

(** Findings at {!Dp_diag.Diag.Error} severity only. *)
val errors : finding list -> finding list

(** Findings at [Warning] severity or above — what [Strict] gates on. *)
val significant : finding list -> finding list

val to_diag : finding -> Dp_diag.Diag.t

(** How much integrity checking a synthesis entry point performs:
    [Off] none (the default), [Warn] lints and reports findings through
    [on_finding] but proceeds, [Strict] fails with a diagnostic if any
    finding at [Warning]+ severity exists. *)
type check_level = Off | Warn | Strict

val check_level_name : check_level -> string
val check_level_of_name : string -> check_level option

(** [gate ~level ?on_finding nl] applies the policy above; the [Error]
    carries the first finding's rule plus a finding count in context. *)
val gate :
  level:check_level -> ?on_finding:(finding -> unit) -> Netlist.t ->
  (unit, Dp_diag.Diag.t) result
