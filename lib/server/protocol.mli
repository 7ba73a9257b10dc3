(** The line-delimited JSON wire protocol: request parsing, response
    building, and the machine-readable result record shared with the
    [--json] CLI surface.  See [doc/protocol.md] for the format spec.

    Malformed input maps to typed diagnostics — [DP-PROTO001] for a line
    that is not valid JSON, [DP-PROTO002] for a well-formed line with a
    missing/invalid field — so a bad request produces an error envelope
    instead of killing the connection. *)

type var_spec = {
  vname : string;
  vwidth : int;
  vsigned : bool;
  varrival : float array;  (** length [vwidth] *)
  vprob : float array;  (** length [vwidth] *)
}

type synth_params = {
  expr_text : string;  (** the expression exactly as the client sent it *)
  expr : Dp_expr.Ast.t;
  vars : var_spec list;
  width : int option;
  strategy : Dp_flow.Strategy.t;
  adder : Dp_adders.Adder.kind;
  lower_config : Dp_bitmatrix.Lower.config;
  check_level : Dp_verify.Lint.check_level;
  emit_verilog : bool;  (** include the full Verilog text in the record *)
  deadline_ms : float option;
      (** client budget for the whole request, measured by the server
          from the moment the request is {e enqueued}; queue wait counts
          against it, so a request that cannot start in time fails fast
          with [DP-SRV-DEADLINE] instead of synthesizing a result nobody
          is waiting for *)
}

type request =
  | Synth of synth_params
  | Batch of synth_params list
  | Stats
  | Ping  (** liveness probe: answered inline by the connection handler,
              never queued — a server with wedged workers still pongs,
              a hung process does not *)
  | Shutdown

type envelope = { id : Json.t; req : request }
(** [id] is echoed verbatim into the response ([Null] when absent). *)

(** Uniform-attribute constructor (arrival 0.0, prob 0.5 by default). *)
val var_spec :
  ?arrival:float array -> ?prob:float array -> ?signed:bool ->
  string -> width:int -> var_spec

(** Parse the expression text and assemble parameters with [dpsyn synth]
    defaults; a parse failure is a [DP-PROTO002]. *)
val synth_params :
  ?vars:var_spec list -> ?width:int option -> ?strategy:Dp_flow.Strategy.t ->
  ?adder:Dp_adders.Adder.kind -> ?lower_config:Dp_bitmatrix.Lower.config ->
  ?check_level:Dp_verify.Lint.check_level -> ?emit_verilog:bool ->
  ?deadline_ms:float option ->
  string -> (synth_params, Dp_diag.Diag.t) result

(** A design as a request: its variables with their per-bit profiles,
    its output width, and [dpsyn synth] defaults otherwise. *)
val params_of_design :
  ?strategy:Dp_flow.Strategy.t -> ?adder:Dp_adders.Adder.kind ->
  Dp_designs.Design.t -> (synth_params, Dp_diag.Diag.t) result

(** Build the input environment ([DP-ENV001/002] on bad attributes). *)
val env_of_params : synth_params -> (Dp_expr.Env.t, Dp_diag.Diag.t) result

(** Lower protocol parameters to a cache-layer request. *)
val serve_request :
  tech:Dp_tech.Tech.t -> synth_params ->
  (Dp_cache.Serve.request, Dp_diag.Diag.t) result

(** The request's content address ({!Dp_cache.Key.digest}), computed
    exactly as the serving shard will compute it — the router shards on
    this.  [None] when no key can be built (bad env/coverage); the
    request is still forwarded so the shard can produce the typed
    error. *)
val digest_of_params : tech:Dp_tech.Tech.t -> synth_params -> string option

(** Parse one synth-parameter object (the shape batch elements use). *)
val params_of_json : Json.t -> (synth_params, Dp_diag.Diag.t) result

(** The inverse: the synth-parameter object [params_of_json] accepts —
    the shape the request journal persists for replay. *)
val params_to_json : synth_params -> Json.t

val request_of_line : string -> (envelope, Dp_diag.Diag.t) result
val request_of_json : Json.t -> (envelope, Dp_diag.Diag.t) result
val request_to_json : envelope -> Json.t

(** The [id] to echo in an error envelope for an unparsable request:
    the line's ["id"] member when the line is valid JSON, else [Null]. *)
val id_of_line : string -> Json.t

val diag_to_json : Dp_diag.Diag.t -> Json.t

(** ["dpsyn-result/1"] *)
val result_schema : string

(** The result record.  Deliberately excludes the [cached] flag (that
    lives on the envelope) so records for the same request are
    byte-identical whether served fresh or from cache. *)
val result_record : synth_params -> Dp_cache.Serve.outcome -> Json.t

val ok_response : id:Json.t -> (string * Json.t) list -> Json.t
val error_response : id:Json.t -> Dp_diag.Diag.t -> Json.t
val synth_response : id:Json.t -> synth_params -> Dp_cache.Serve.outcome -> Json.t

val batch_element :
  synth_params -> (Dp_cache.Serve.outcome, Dp_diag.Diag.t) result -> Json.t

val batch_response : id:Json.t -> Json.t list -> Json.t
