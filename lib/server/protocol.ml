(* Line-delimited JSON protocol shared by [dpsyn serve], [dpsyn client],
   [dpsyn batch] and the [--json] CLI surface.  One request per line, one
   response line per request; the response echoes the request [id]
   verbatim so a pipelined client can match them up.  Malformed input
   never kills the connection — it comes back as a DP-PROTO* diagnostic
   in an error envelope. *)

open Dp_expr
module Diag = Dp_diag.Diag
module Lower = Dp_bitmatrix.Lower

let proto_error ?(code = "DP-PROTO002") ?(context = []) fmt =
  Fmt.kstr
    (fun msg -> Error (Diag.v ~code ~subsystem:"proto" ~context msg))
    fmt

(* ------------------------------------------------------------------ *)
(* Requests *)

type var_spec = {
  vname : string;
  vwidth : int;
  vsigned : bool;
  varrival : float array;  (* length [vwidth] *)
  vprob : float array;  (* length [vwidth] *)
}

type synth_params = {
  expr_text : string;
  expr : Ast.t;
  vars : var_spec list;
  width : int option;
  strategy : Dp_flow.Strategy.t;
  adder : Dp_adders.Adder.kind;
  lower_config : Dp_bitmatrix.Lower.config;
  check_level : Dp_verify.Lint.check_level;
  emit_verilog : bool;
  deadline_ms : float option;
}

type request =
  | Synth of synth_params
  | Batch of synth_params list
  | Stats
  | Ping
  | Shutdown

type envelope = { id : Json.t; req : request }

let var_spec ?arrival ?prob ?(signed = false) name ~width =
  {
    vname = name;
    vwidth = width;
    vsigned = signed;
    varrival = (match arrival with Some a -> a | None -> Array.make (max width 0) 0.0);
    vprob = (match prob with Some p -> p | None -> Array.make (max width 0) 0.5);
  }

let synth_params ?(vars = []) ?(width = None)
    ?(strategy = Dp_flow.Strategy.Fa_aot) ?(adder = Dp_adders.Adder.Cla)
    ?(lower_config = Dp_bitmatrix.Lower.default_config)
    ?(check_level = Dp_verify.Lint.Off) ?(emit_verilog = false)
    ?(deadline_ms = None) expr_text =
  match Parse.expr expr_text with
  | exception Parse.Error msg ->
    proto_error ~context:[ ("expr", expr_text) ] "%s" msg
  | expr ->
    Ok
      {
        expr_text;
        expr;
        vars;
        width;
        strategy;
        adder;
        lower_config;
        check_level;
        emit_verilog;
        deadline_ms;
      }

let params_of_design ?strategy ?adder (d : Dp_designs.Design.t) =
  let vars =
    List.map
      (fun (name, (v : Env.var_info)) ->
        var_spec ~arrival:v.arrival ~prob:v.prob ~signed:v.signed name
          ~width:v.width)
      (Env.bindings d.env)
  in
  synth_params ~vars ~width:(Some d.width) ?strategy ?adder
    (Ast.to_string d.expr)

let env_of_params p =
  List.fold_left
    (fun acc v ->
      match acc with
      | Error _ as e -> e
      | Ok env -> (
        match
          Env.add_res ~arrival:v.varrival ~prob:v.vprob ~signed:v.vsigned
            v.vname ~width:v.vwidth env
        with
        | Ok _ as ok -> ok
        | Error _ as e -> e
        | exception Invalid_argument msg ->
          proto_error ~context:[ ("var", v.vname) ] "%s" msg))
    (Ok Env.empty) p.vars

let serve_request ~tech p =
  match env_of_params p with
  | Error _ as e -> e
  | Ok env ->
    Ok
      (Dp_cache.Serve.request ~width:p.width ~strategy:p.strategy
         ~adder:p.adder ~lower_config:p.lower_config
         ~check_level:p.check_level ~tech env p.expr)

(* The content address of a request, computed the same way the shard
   will compute it ([Key.make] over the canonical expression and the
   resolved width).  This is what the router shards on — router and
   shard must agree byte-for-byte on the digest or routing would be
   arbitrary.  [None] when the parameters cannot produce a key (env
   construction or coverage fails); such requests still go to a shard,
   which produces the typed error the client expects. *)
let digest_of_params ~tech p =
  match env_of_params p with
  | Error _ -> None
  | Ok env -> (
    match Dp_expr.Env.check_covers_res p.expr env with
    | Error _ -> None
    | Ok () -> (
      match
        Dp_cache.Key.make ~tech ~adder:p.adder ~lower_config:p.lower_config
          ~check_level:p.check_level ?width:p.width p.strategy env p.expr
      with
      | key -> Some (Dp_cache.Key.digest key)
      | exception _ -> None))

(* ------------------------------------------------------------------ *)
(* JSON → request *)

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

let field_err field fmt =
  Fmt.kstr
    (fun msg ->
      Error
        (Diag.v ~code:"DP-PROTO002" ~subsystem:"proto"
           ~context:[ ("field", field) ] msg))
    fmt

let opt_field v name conv ~default ~expected =
  match Json.member name v with
  | None | Some Json.Null -> Ok default
  | Some j -> (
    match conv j with
    | Some x -> Ok x
    | None -> field_err name "expected %s" expected)

let named_field v name of_name ~default ~what =
  match Json.member name v with
  | None | Some Json.Null -> Ok default
  | Some j -> (
    match Json.to_str j with
    | None -> field_err name "expected a %s name (string)" what
    | Some s -> (
      match of_name s with
      | Some x -> Ok x
      | None -> field_err name "unknown %s %S" what s))

let of_name name all s = List.find_opt (fun x -> String.equal (name x) s) all

(* A per-bit attribute is either one number (uniform) or an array of
   [width] numbers. *)
let bit_attr v name ~width ~default =
  match Json.member name v with
  | None | Some Json.Null -> Ok (Array.make width default)
  | Some j -> (
    match Json.to_float j with
    | Some f -> Ok (Array.make width f)
    | None -> (
      match Json.to_list j with
      | None -> field_err name "expected a number or an array of numbers"
      | Some xs -> (
        match List.map Json.to_float xs with
        | floats when List.for_all Option.is_some floats ->
          let arr = Array.of_list (List.map Option.get floats) in
          if Array.length arr = width then Ok arr
          else
            field_err name "expected %d entries (one per bit), got %d" width
              (Array.length arr)
        | _ -> field_err name "expected a number or an array of numbers")))

let var_of_json j =
  match j with
  | Json.Obj _ -> (
    match Json.member "name" j |> Fun.flip Option.bind Json.to_str with
    | None -> field_err "vars" "each var needs a string \"name\""
    | Some name -> (
      match Json.member "width" j |> Fun.flip Option.bind Json.to_int with
      | None -> field_err "vars" "var %S needs an integer \"width\"" name
      | Some width when width < 1 ->
        field_err "vars" "var %S: width must be >= 1 (got %d)" name width
      | Some width ->
        let* signed =
          opt_field j "signed" Json.to_bool ~default:false ~expected:"a boolean"
        in
        let* arrival = bit_attr j "arrival" ~width ~default:0.0 in
        let* prob = bit_attr j "prob" ~width ~default:0.5 in
        Ok
          {
            vname = name;
            vwidth = width;
            vsigned = signed;
            varrival = arrival;
            vprob = prob;
          }))
  | _ -> field_err "vars" "each var must be an object"

let rec collect f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = collect f xs in
    Ok (y :: ys)

let params_of_json j =
  match Json.member "expr" j |> Fun.flip Option.bind Json.to_str with
  | None -> field_err "expr" "expected an expression string"
  | Some expr_text ->
    let* vars =
      match Json.member "vars" j with
      | None | Some Json.Null -> Ok []
      | Some (Json.List xs) -> collect var_of_json xs
      | Some _ -> field_err "vars" "expected an array of var objects"
    in
    let* width =
      opt_field j "width"
        (fun v -> Option.map Option.some (Json.to_int v))
        ~default:None ~expected:"an integer"
    in
    let* strategy =
      named_field j "strategy" Dp_flow.Strategy.of_name
        ~default:Dp_flow.Strategy.Fa_aot ~what:"strategy"
    in
    let* adder =
      named_field j "adder" Dp_adders.Adder.of_name
        ~default:Dp_adders.Adder.Cla ~what:"adder"
    in
    let* recoding =
      named_field j "recoding" (of_name Lower.recoding_name Lower.recodings)
        ~default:Dp_bitmatrix.Lower.default_config.recoding ~what:"recoding"
    in
    let* multiplier_style =
      named_field j "multiplier"
        (of_name Lower.multiplier_name Lower.multiplier_styles)
        ~default:Dp_bitmatrix.Lower.default_config.multiplier_style
        ~what:"multiplier style"
    in
    let* check_level =
      named_field j "check_level" Dp_verify.Lint.check_level_of_name
        ~default:Dp_verify.Lint.Off ~what:"check level"
    in
    let* emit_verilog =
      opt_field j "emit_verilog" Json.to_bool ~default:false
        ~expected:"a boolean"
    in
    let* deadline_ms =
      opt_field j "deadline_ms"
        (fun v -> Option.map Option.some (Json.to_float v))
        ~default:None ~expected:"a number of milliseconds"
    in
    let* deadline_ms =
      match deadline_ms with
      | Some d when d <= 0.0 ->
        field_err "deadline_ms" "expected a positive number of milliseconds"
      | d -> Ok d
    in
    synth_params ~vars ~width ~strategy ~adder
      ~lower_config:{ Dp_bitmatrix.Lower.recoding; multiplier_style }
      ~check_level ~emit_verilog ~deadline_ms expr_text

let request_of_json j =
  let id = Option.value (Json.member "id" j) ~default:Json.Null in
  let req =
    match Json.member "op" j |> Fun.flip Option.bind Json.to_str with
    | None ->
      field_err "op"
        "expected \"synth\", \"batch\", \"stats\", \"ping\" or \"shutdown\""
    | Some "synth" ->
      let* p = params_of_json j in
      Ok (Synth p)
    | Some "batch" -> (
      match Json.member "requests" j with
      | Some (Json.List xs) ->
        let* ps = collect params_of_json xs in
        Ok (Batch ps)
      | _ -> field_err "requests" "expected an array of synth request objects")
    | Some "stats" -> Ok Stats
    | Some "ping" -> Ok Ping
    | Some "shutdown" -> Ok Shutdown
    | Some op -> field_err "op" "unknown op %S" op
  in
  match req with Ok req -> Ok { id; req } | Error _ as e -> e

let request_of_line line =
  match Json.of_string line with
  | Error msg ->
    Error
      (Diag.v ~code:"DP-PROTO001" ~subsystem:"proto"
         ~context:[ ("detail", msg) ] "malformed request: not valid JSON")
  | Ok j -> request_of_json j

(* Best-effort id recovery for error envelopes: a request that fails
   field validation still gets its id echoed back whenever the line
   parsed as JSON at all. *)
let id_of_line line =
  match Json.of_string line with
  | Error _ -> Json.Null
  | Ok j -> Option.value (Json.member "id" j) ~default:Json.Null

(* ------------------------------------------------------------------ *)
(* Request → JSON (the client side) *)

let uniform arr ~default =
  if Array.for_all (fun x -> x = default) arr then None
  else if Array.length arr > 0 && Array.for_all (fun x -> x = arr.(0)) arr then
    Some (Json.Float arr.(0))
  else Some (Json.List (Array.to_list arr |> List.map (fun f -> Json.Float f)))

let var_to_json v =
  let fields =
    [ ("name", Json.Str v.vname); ("width", Json.Int v.vwidth) ]
    @ (if v.vsigned then [ ("signed", Json.Bool true) ] else [])
    @ (match uniform v.varrival ~default:0.0 with
      | Some j -> [ ("arrival", j) ]
      | None -> [])
    @
    match uniform v.vprob ~default:0.5 with
    | Some j -> [ ("prob", j) ]
    | None -> []
  in
  Json.Obj fields

let params_fields p =
  [
    ("expr", Json.Str p.expr_text);
    ("vars", Json.List (List.map var_to_json p.vars));
  ]
  @ (match p.width with Some w -> [ ("width", Json.Int w) ] | None -> [])
  @ [
      ("strategy", Json.Str (Dp_flow.Strategy.name p.strategy));
      ("adder", Json.Str (Dp_adders.Adder.name p.adder));
      ("recoding", Json.Str (Lower.recoding_name p.lower_config.recoding));
      ( "multiplier",
        Json.Str (Lower.multiplier_name p.lower_config.multiplier_style) );
      ("check_level", Json.Str (Dp_verify.Lint.check_level_name p.check_level));
    ]
  @ (if p.emit_verilog then [ ("emit_verilog", Json.Bool true) ] else [])
  @
  match p.deadline_ms with
  | Some d -> [ ("deadline_ms", Json.Float d) ]
  | None -> []

let params_to_json p = Json.Obj (params_fields p)

let request_to_json { id; req } =
  let id_field = match id with Json.Null -> [] | id -> [ ("id", id) ] in
  match req with
  | Synth p -> Json.Obj (id_field @ (("op", Json.Str "synth") :: params_fields p))
  | Batch ps ->
    Json.Obj
      (id_field
      @ [
          ("op", Json.Str "batch");
          ("requests", Json.List (List.map (fun p -> Json.Obj (params_fields p)) ps));
        ])
  | Stats -> Json.Obj (id_field @ [ ("op", Json.Str "stats") ])
  | Ping -> Json.Obj (id_field @ [ ("op", Json.Str "ping") ])
  | Shutdown -> Json.Obj (id_field @ [ ("op", Json.Str "shutdown") ])

(* ------------------------------------------------------------------ *)
(* Results and diagnostics → JSON *)

let diag_to_json (d : Diag.t) =
  Json.Obj
    [
      ("code", Json.Str d.code);
      ("subsystem", Json.Str d.subsystem);
      ("severity", Json.Str (Diag.severity_name d.severity));
      ("message", Json.Str d.message);
      ( "context",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) d.context) );
    ]

let result_schema = "dpsyn-result/1"

let result_record (p : synth_params) (o : Dp_cache.Serve.outcome) =
  let r = o.result in
  let s = r.stats in
  Json.Obj
    ([
       ("schema", Json.Str result_schema);
       ("expr", Json.Str p.expr_text);
       ("strategy", Json.Str (Dp_flow.Strategy.name r.strategy));
       ("adder", Json.Str (Dp_adders.Adder.name p.adder));
       ("output", Json.Str r.output);
       ("width", Json.Int o.width);
       ("digest", Json.Str o.digest);
       ( "stats",
         Json.Obj
           [
             ("nets", Json.Int s.nets);
             ("cells", Json.Int s.cells);
             ("fa", Json.Int s.fa_count);
             ("ha", Json.Int s.ha_count);
             ("counters", Json.Int s.counter_count);
             ("gates", Json.Int s.gate_count);
             ("area", Json.Float s.area);
             ("depth", Json.Int s.depth);
             ("delay", Json.Float s.delay);
           ] );
       ("tree_switching", Json.Float r.tree_switching);
       ("total_switching", Json.Float r.total_switching);
       ( "reduced_max_arrival",
         match r.reduced_max_arrival with
         | Some t -> Json.Float t
         | None -> Json.Null );
       ("verilog_bytes", Json.Int (String.length o.verilog));
       ("verilog_md5", Json.Str (Digest.to_hex (Digest.string o.verilog)));
     ]
    @ if p.emit_verilog then [ ("verilog", Json.Str o.verilog) ] else [])

(* ------------------------------------------------------------------ *)
(* Response envelopes *)

let ok_response ~id fields = Json.Obj (("id", id) :: ("ok", Json.Bool true) :: fields)

let error_response ~id d =
  Json.Obj [ ("id", id); ("ok", Json.Bool false); ("error", diag_to_json d) ]

let synth_response ~id p (o : Dp_cache.Serve.outcome) =
  ok_response ~id
    [ ("cached", Json.Bool o.cached); ("result", result_record p o) ]

(* Each batch element is its own mini-envelope (no id — order answers). *)
let batch_element p = function
  | Ok (o : Dp_cache.Serve.outcome) ->
    Json.Obj
      [
        ("ok", Json.Bool true);
        ("cached", Json.Bool o.cached);
        ("result", result_record p o);
      ]
  | Error d -> Json.Obj [ ("ok", Json.Bool false); ("error", diag_to_json d) ]

let batch_response ~id elements =
  ok_response ~id [ ("results", Json.List elements) ]
