open Dp_expr

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
  List.iter (add_float buf)
    [
      t.fa_sum_delay; t.fa_carry_delay; t.ha_sum_delay; t.ha_carry_delay;
      t.and2_delay; t.or2_delay; t.xor2_delay; t.not_delay; t.buf_delay;
      t.fa_area; t.ha_area; t.and2_area; t.or2_area; t.xor2_area;
      t.not_area; t.buf_area; t.fa_sum_energy; t.fa_carry_energy;
      t.ha_sum_energy; t.ha_carry_energy; t.gate_energy; t.counter_fusion;
    ];
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
  Buffer.add_string buf
    (match k.lower_config.recoding with
    | Dp_bitmatrix.Lower.Csd -> "recoding csd\n"
    | Dp_bitmatrix.Lower.Binary -> "recoding binary\n");
  Buffer.add_string buf
    (match k.lower_config.multiplier_style with
    | Dp_bitmatrix.Lower.And_array -> "multiplier and-array\n"
    | Dp_bitmatrix.Lower.Booth -> "multiplier booth\n");
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
