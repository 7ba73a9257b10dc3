open Dp_expr
module Lower = Dp_bitmatrix.Lower

type t = {
  expr : Ast.t;
  env : Env.t;
  width : int;
  strategy : Dp_flow.Strategy.t;
  adder : Dp_adders.Adder.kind;
  lower_config : Dp_bitmatrix.Lower.config;
  check_level : Dp_verify.Lint.check_level;
  tech : Dp_tech.Tech.t;
  fingerprint : string;
  digest : string;
}

(* %h prints the exact bit pattern of a float, so the fingerprint never
   depends on decimal rounding. *)
let add_float buf f = Buffer.add_string buf (Printf.sprintf " %h" f)

let add_tech buf (t : Dp_tech.Tech.t) =
  Buffer.add_string buf "tech ";
  Buffer.add_string buf t.name;
  List.iter (fun (p : Dp_tech.Tech.param) -> add_float buf (p.read t))
    Dp_tech.Tech.params;
  Buffer.add_char buf '\n'

let text k =
  let buf = Buffer.create 512 in
  (* The version changes whenever a fix changes what the same request
     builds, so a durable store never serves a result of the old code.
     /2: range analysis saturates instead of wrapping past 2^62, which
     changes Conventional node widths on requests that overflowed. *)
  Buffer.add_string buf "dpsyn-key/2\n";
  Buffer.add_string buf ("expr " ^ Ast.to_string k.expr ^ "\n");
  Buffer.add_string buf (Printf.sprintf "width %d\n" k.width);
  Buffer.add_string buf ("strategy " ^ Dp_flow.Strategy.name k.strategy ^ "\n");
  Buffer.add_string buf ("adder " ^ Dp_adders.Adder.name k.adder ^ "\n");
  let lc = k.lower_config in
  Buffer.add_string buf ("recoding " ^ Lower.recoding_name lc.recoding ^ "\n");
  Buffer.add_string buf
    ("multiplier " ^ Lower.multiplier_name lc.multiplier_style ^ "\n");
  Buffer.add_string buf
    ("check " ^ Dp_verify.Lint.check_level_name k.check_level ^ "\n");
  add_tech buf k.tech;
  (* Only the variables the expression references: an unused binding in
     the environment must not split the cache entry.  [Ast.vars] is
     sorted, so the fingerprint is independent of binding order too. *)
  List.iter
    (fun name ->
      let info = Env.find name k.env in
      Buffer.add_string buf
        (Printf.sprintf "var %s %d %b" name info.width info.signed);
      Array.iter (add_float buf) info.arrival;
      Array.iter (add_float buf) info.prob;
      Buffer.add_char buf '\n')
    (Ast.vars k.expr);
  Buffer.contents buf

(* The text and its digest are built once, here: a served request reads
   them in [Serve.run], [Store.find] and [Store.add]. *)
let make ?(tech = Dp_tech.Tech.lcb_like) ?(adder = Dp_adders.Adder.Cla)
    ?(lower_config = Dp_bitmatrix.Lower.default_config)
    ?(check_level = Dp_verify.Lint.Off) ?width strategy env expr =
  let expr = Canon.canonicalize expr in
  (* The width is resolved against the *canonical* expression, so every
     request in the same canonical class keys (and synthesizes)
     identically even when no explicit width is given. *)
  let width =
    match width with Some w -> w | None -> Range.natural_width env expr
  in
  let k =
    {
      expr;
      env;
      width;
      strategy;
      adder;
      lower_config;
      check_level;
      tech;
      fingerprint = "";
      digest = "";
    }
  in
  let fingerprint = text k in
  { k with fingerprint; digest = Digest.to_hex (Digest.string fingerprint) }

let fingerprint k = k.fingerprint
let digest k = k.digest
