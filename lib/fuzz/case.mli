(** A fuzz case: a variable environment plus one or more output ports.

    Cases deliberately mirror what the [dpsyn] command line can express
    (uniform per-variable arrival/probability, widths with an ['s']
    signedness suffix), so every failure the fuzzer finds prints as a
    ready-to-paste [dpsyn synth] / [dpsyn synth-multi] invocation. *)

type var_spec = {
  name : string;
  width : int;
  signed : bool;
  arrival : float;  (** uniform over all bits *)
  prob : float;  (** uniform 1-probability over all bits *)
}

type t = {
  vars : var_spec list;
  ports : (string * Dp_expr.Ast.t * int) list;
      (** name, expression, synthesis width (within [1, 62]) *)
}

val make_var :
  ?signed:bool -> ?arrival:float -> ?prob:float -> string -> width:int ->
  var_spec

(** Single-output case on port ["out"]. *)
val single : ?vars:var_spec list -> Dp_expr.Ast.t -> width:int -> t

(** [Some (expr, width)] iff the case has exactly one port. *)
val single_port : t -> (Dp_expr.Ast.t * int) option

(** Environment with each spec bound uniformly.
    @raise Invalid_argument on invalid specs. *)
val env : t -> Dp_expr.Env.t

(** Distinct variables referenced by any port, sorted. *)
val used_vars : t -> string list

(** Drop specs no port references. *)
val drop_unused_vars : t -> t

(** [x:8s:0:0.5] — the CLI's [-v] syntax ([s] marks a signed width). *)
val var_spec_to_string : var_spec -> string

(** The inverse of {!var_spec_to_string}; it also reads an uppercase
    [S] suffix as signed. *)
val var_spec_of_string : string -> (var_spec, string) result

(** A complete [dpsyn] command line reproducing the case outside the
    fuzzer: [dpsyn synth] for single-port cases, [dpsyn synth-multi]
    otherwise.  Strategy/adder default to "every pair diverges
    somewhere", so they are emitted only when given. *)
val synth_command :
  ?strategy:Dp_flow.Strategy.t -> ?adder:Dp_adders.Adder.kind -> t -> string

val equal : t -> t -> bool

(** Structural size: AST nodes over all ports plus one per variable —
    the quantity the shrinker drives down. *)
val size : t -> int

val pp : t Fmt.t
