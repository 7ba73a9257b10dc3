(** One-call synthesis: expression → netlist under a chosen strategy, with
    the metrics the paper's tables report. *)

open Dp_netlist
open Dp_expr

type result = {
  strategy : Strategy.t;
  netlist : Netlist.t;
  output : string;  (** always ["out"] *)
  width : int;
  stats : Stats.t;
  tree_switching : float;  (** the paper's E_switching(T) *)
  total_switching : float;
  reduced_max_arrival : float option;
      (** latest arrival among the final adder's operand bits — the
          objective of the paper's modified Problem 1; [None] for the
          conventional flow, which has no single final adder *)
}

(** [run strategy env expr] synthesizes [expr] mod 2^width (default: the
    natural width) — the one-port case of {!run_multi}, its port named
    ["out"].  [adder] picks the final/CPA adder architecture;
    [lower_config] the coefficient recoding.  Matrix strategies share the
    same lowering; [Conventional] builds its own word-level structure.

    [check_level] (default [Off]) gates the result on the structural
    integrity checker: [Warn] reports {!Dp_verify.Lint} findings on
    stderr and proceeds, [Strict] additionally @raise Dp_diag.Diag.E
    with a [DP-SYNTH002] (lint) or [DP-SYNTH003] (output width)
    diagnostic if any finding survives.  Prefer {!run_res} for the
    exception-free form. *)
val run :
  ?tech:Dp_tech.Tech.t -> ?adder:Dp_adders.Adder.kind ->
  ?lower_config:Dp_bitmatrix.Lower.config -> ?width:int ->
  ?check_level:Dp_verify.Lint.check_level ->
  Strategy.t -> Env.t -> Ast.t -> result

(** Like {!run}, but every failure — unbound variables ([DP-ENV003]),
    bad widths surfacing from the lowering ([DP-SYNTH001]), strict-mode
    lint findings ([DP-SYNTH002/3]), and any other exception escaping
    the flow, converted to the [DP-INTERNAL] catch-all — comes back as a
    typed diagnostic instead of an exception.  Only [Sys.Break] is
    re-raised. *)
val run_res :
  ?tech:Dp_tech.Tech.t -> ?adder:Dp_adders.Adder.kind ->
  ?lower_config:Dp_bitmatrix.Lower.config -> ?width:int ->
  ?check_level:Dp_verify.Lint.check_level ->
  Strategy.t -> Env.t -> Ast.t -> (result, Dp_diag.Diag.t) Stdlib.result

type port = { name : string; expr : Ast.t; width : int }

type multi_result = {
  strategy : Strategy.t;
  netlist : Netlist.t;
  ports : port list;
  stats : Stats.t;
  tree_switching : float;
  total_switching : float;
}

(** Synthesize several named outputs into one netlist.  Inputs and (via
    structural hashing) partial-product gates are shared across outputs —
    the paper's "applying our algorithm to all arithmetic expressions in a
    circuit iteratively".  @raise Invalid_argument on an empty port list or
    conflicting input widths. *)
val run_multi :
  ?tech:Dp_tech.Tech.t -> ?adder:Dp_adders.Adder.kind ->
  ?lower_config:Dp_bitmatrix.Lower.config ->
  ?check_level:Dp_verify.Lint.check_level ->
  Strategy.t -> Env.t -> port list -> multi_result

(** Exception-free {!run_multi}; failures are typed diagnostics as in
    {!run_res}, including the [DP-INTERNAL] catch-all and a [DP-ENV003]
    coverage pre-check over every port. *)
val run_multi_res :
  ?tech:Dp_tech.Tech.t -> ?adder:Dp_adders.Adder.kind ->
  ?lower_config:Dp_bitmatrix.Lower.config ->
  ?check_level:Dp_verify.Lint.check_level ->
  Strategy.t -> Env.t -> port list ->
  (multi_result, Dp_diag.Diag.t) Stdlib.result

(** Check every port of a multi-output result; returns the first failing
    port's name with its mismatch. *)
val verify_multi :
  ?trials:int -> ?env:Env.t -> multi_result ->
  (unit, string * Dp_sim.Equiv.mismatch) Stdlib.result

(** Like {!run} but synthesizes once per final-adder architecture and
    returns the fastest result — modelling the downstream logic
    optimization the paper relied on for the final CPA. *)
val run_best_adder :
  ?tech:Dp_tech.Tech.t -> ?lower_config:Dp_bitmatrix.Lower.config ->
  ?width:int -> Strategy.t -> Env.t -> Ast.t -> result

(** Random functional-equivalence check of a result against its source
    expression — the one-port case of {!verify_multi}.  Pass the
    environment whenever it declares signed variables, so their bit
    patterns are interpreted in two's complement. *)
val verify :
  ?trials:int -> ?env:Env.t -> result -> Ast.t ->
  (unit, Dp_sim.Equiv.mismatch) Stdlib.result
