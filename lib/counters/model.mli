(** Recipe-derived physical model of a counter body, computed from the
    technology's FA/HA constants alone.  [Certify] holds the technology's
    monolithic closed forms to these values, so the numbers STA/power see
    for a counter cell are exactly the numbers its certified body
    implies. *)

(** Delay from [pin] to [port] through the recipe, or [None] when the pin
    has no combinational path to that port. *)
val pin_delay :
  Dp_tech.Tech.t -> Dp_tech.Recipe.t -> pin:int -> port:int -> float option

(** Sum of the body's FA/HA areas. *)
val area : Dp_tech.Tech.t -> Dp_tech.Recipe.t -> float

(** Sum of per-transition energies over every block output — the total
    the monolithic cell must conserve across its three ports. *)
val total_energy : Dp_tech.Tech.t -> Dp_tech.Recipe.t -> float
