(** Cache keys: the full identity of a synthesis request.

    The paper's FA_AOT/FA_ALP results depend on per-operand arrival and
    probability profiles, so a correct cache key covers the {e whole}
    request: canonical expression, every referenced variable's
    width/signedness/arrival/probability profile, the technology
    constants, the strategy, the final adder, the lowering configuration,
    the resolved output width, and the lint gate level.  Anything less
    would serve a netlist synthesized under different prescribed arrival
    times — the sensitivity studied by Brenner & Hermann — as if it were
    equivalent. *)

(** Private: only {!make} builds a key, so its text and digest always
    describe its fields. *)
type t = private {
  expr : Dp_expr.Ast.t;  (** canonical form (see {!Canon.canonicalize}) *)
  env : Dp_expr.Env.t;
  width : int;  (** resolved: explicit, or natural width of the canonical expr *)
  strategy : Dp_flow.Strategy.t;
  adder : Dp_adders.Adder.kind;
  lower_config : Dp_bitmatrix.Lower.config;
  check_level : Dp_verify.Lint.check_level;
  tech : Dp_tech.Tech.t;
  fingerprint : string;  (** see {!val-fingerprint} *)
  digest : string;  (** see {!val-digest} *)
}

(** Canonicalizes the expression, resolves the width, and builds the
    fingerprint and its digest.  Defaults match
    [dpsyn synth]: lcb_like technology, CLA final adder, CSD/AND-array
    lowering, lint gate off.
    @raise Invalid_argument if the environment does not cover the
    expression (callers pre-check with [Env.check_covers_res]). *)
val make :
  ?tech:Dp_tech.Tech.t -> ?adder:Dp_adders.Adder.kind ->
  ?lower_config:Dp_bitmatrix.Lower.config ->
  ?check_level:Dp_verify.Lint.check_level -> ?width:int ->
  Dp_flow.Strategy.t -> Dp_expr.Env.t -> Dp_expr.Ast.t -> t

(** Stable, human-readable serialization of every field the digest
    covers, built by {!make}.  Floats print as [%h] (exact bit patterns);
    variables appear in sorted order and only when the expression
    references them. *)
val fingerprint : t -> string

(** Hex MD5 of {!val-fingerprint} — the content address of the entry. *)
val digest : t -> string
