(** Technology model: per-cell delay, area and switching-energy constants.

    The paper characterized its cells (notably the full adder's sum delay
    [Ds], carry delay [Dc] and switching energies [Ws], [Wc]) from the LSI
    lcbg10pv 0.35um library with Synopsys tools.  We substitute a parameter
    record; [lcb_like] carries defaults at the same order of magnitude and
    [unit_delay] is the Ds = 2, Dc = 1 teaching technology of the paper's
    Fig. 2. *)

type t = {
  name : string;
  fa_sum_delay : float;  (** Ds: FA input-to-sum delay (ns). *)
  fa_carry_delay : float;  (** Dc: FA input-to-carry delay (ns). *)
  ha_sum_delay : float;
  ha_carry_delay : float;
  and2_delay : float;
  or2_delay : float;
  xor2_delay : float;
  not_delay : float;
  buf_delay : float;
  fa_area : float;
  ha_area : float;
  and2_area : float;
  or2_area : float;
  xor2_area : float;
  not_area : float;
  buf_area : float;
  fa_sum_energy : float;  (** Ws: energy of one FA sum-output transition. *)
  fa_carry_energy : float;  (** Wc: energy of one FA carry-output transition. *)
  ha_sum_energy : float;
  ha_carry_energy : float;
  gate_energy : float;  (** Energy of one transition of any plain gate. *)
  counter_fusion : float;
      (** Speed ratio (0 < f <= 1) of a monolithic parallel-counter cell
          against its FA/HA-composed reference body: every counter
          pin-to-port delay is the certified body's path delay times this
          factor.  Models the fused cell's shorter internal paths (a
          dedicated 4:2/7:3 layout avoids the full rail-to-rail swing of
          two cascaded FAs); 1.0 means counters are priced exactly as
          their discrete bodies. *)
}

val lcb_like : t
val unit_delay : t

(** [delay t kind ~port] is the pin-to-pin delay of output [port] of a cell
    of [kind].  Wide n-ary gates are priced as balanced trees of 2-input
    gates.  For the parallel counters this is the worst case over input
    pins; use {!pin_delay} for the pin-resolved model.
    @raise Invalid_argument on a nonexistent port. *)
val delay : t -> Cell_kind.t -> port:int -> float

(** [pin_delay t kind ~pin ~port] is the delay from input [pin] to output
    [port], or [None] when the pin has no combinational path to that port
    (the 4:2 compressor's carry-out is independent of its pins 3 and 4).
    Conventional cells report [Some (delay t kind ~port)] for every pin.
    Counter delays are path sums of FA/HA block delays through the
    counter bodies of {!Recipe}, scaled by [counter_fusion];
    [Dp_counters.Certify] holds these closed forms to the recipe-derived
    model for every technology it admits.
    @raise Invalid_argument on a nonexistent port. *)
val pin_delay : t -> Cell_kind.t -> pin:int -> port:int -> float option

val area : t -> Cell_kind.t -> float

(** Energy dissipated by one value transition of the given output port.
    @raise Invalid_argument on a nonexistent port. *)
val energy : t -> Cell_kind.t -> port:int -> float

val pp : t Fmt.t
