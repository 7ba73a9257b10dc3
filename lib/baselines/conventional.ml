open Dp_netlist
open Dp_expr

type multiplier = Wallace_cpa | Shift_add

type config = {
  adder : Dp_adders.Adder.kind;
  multiplier : multiplier;
  balance : bool;
}

let default_config =
  { adder = Dp_adders.Adder.Cla; multiplier = Wallace_cpa; balance = true }

(* Replace Pow by a balanced multiplication tree (square-and-multiply);
   the synthesis memo table then shares the repeated squarings. *)
let rec expand_pow e =
  match e with
  | Ast.Var _ | Ast.Const _ -> e
  | Ast.Add (a, b) -> Ast.Add (expand_pow a, expand_pow b)
  | Ast.Sub (a, b) -> Ast.Sub (expand_pow a, expand_pow b)
  | Ast.Mul (a, b) -> Ast.Mul (expand_pow a, expand_pow b)
  | Ast.Neg a -> Ast.Neg (expand_pow a)
  | Ast.Pow (a, n) ->
    let a = expand_pow a in
    let rec power n =
      if n = 0 then Ast.Const 1
      else if n = 1 then a
      else
        let half = power (n / 2) in
        let sq = Ast.Mul (half, half) in
        if n mod 2 = 0 then sq else Ast.Mul (sq, a)
    in
    power n

(* Sum flattening for operator-tree balancing: a +/- chain becomes a list
   of signed terms. *)
let rec flatten_sum e =
  match e with
  | Ast.Add (a, b) -> flatten_sum a @ flatten_sum b
  | Ast.Sub (a, b) -> flatten_sum a @ List.map (fun (s, t) -> (-s, t)) (flatten_sum b)
  | Ast.Neg a -> List.map (fun (s, t) -> (-s, t)) (flatten_sum a)
  | Ast.Var _ | Ast.Const _ | Ast.Mul _ | Ast.Pow _ -> [ (1, e) ]

type context = {
  netlist : Netlist.t;
  env : Env.t;
  width : int;
  config : config;
  input_bits : (string * Netlist.net array) list;
  memo : (Ast.t, Netlist.net array) Hashtbl.t;
}

(* Width discipline (DESIGN.md): a node whose value range stays
   non-negative is computed at its exact natural width (capped at W); a
   node that can go negative is computed at the full output width W so its
   two's-complement wrap is the final one. *)
let node_width ctx e =
  let range = Range.of_expr ctx.env e in
  if (range : Range.t).lo < 0 then ctx.width
  else min ctx.width (Range.width range)

let fit ctx nets w =
  let len = Array.length nets in
  if len = w then nets
  else if len > w then Array.sub nets 0 w
  else
    Array.init w (fun i ->
        if i < len then nets.(i) else Netlist.const ctx.netlist false)

let sign_extend (_ : context) nets w =
  let len = Array.length nets in
  if len >= w then Array.sub nets 0 w
  else
    let msb = nets.(len - 1) in
    Array.init w (fun i -> if i < len then nets.(i) else msb)

let ready_time ctx nets =
  Array.fold_left
    (fun acc net -> Float.max acc (Netlist.arrival ctx.netlist net))
    0.0 nets

let add_words ctx ~w a b =
  Dp_adders.Adder.build ctx.config.adder ctx.netlist ~a:(fit ctx a w) ~b:(fit ctx b w)

let sub_words ctx ~w a b =
  let b = Array.map (Netlist.not_ ctx.netlist) (fit ctx b w) in
  Dp_adders.Adder.build ~cin:(Netlist.const ctx.netlist true) ctx.config.adder
    ctx.netlist ~a:(fit ctx a w) ~b

let const_word ctx ~w c =
  Array.init w (fun i ->
      Netlist.const ctx.netlist ((c lsr i) land 1 = 1))

let mul_words ctx ~w a b =
  let matrix = Dp_bitmatrix.Matrix.create ~max_width:w () in
  Array.iteri
    (fun i ai ->
      Array.iteri
        (fun j bj ->
          if i + j < w then
            Dp_bitmatrix.Matrix.add matrix ~weight:(i + j)
              (Netlist.and2 ctx.netlist ai bj))
        b)
    a;
  match ctx.config.multiplier with
  | Wallace_cpa ->
    (* a self-contained multiplier module: fixed Wallace compression of the
       partial products, then this module's own carry-propagate adder *)
    Dp_core.Wallace.allocate ctx.netlist matrix;
    Dp_adders.Adder.build_rows ctx.config.adder ctx.netlist ~width:w
      (Dp_bitmatrix.Matrix.operand_rows matrix)
  | Shift_add ->
    (* row-by-row accumulation with carry-propagate adders *)
    let rows = Rows.of_matrix ~width:w matrix in
    let zero = Netlist.const ctx.netlist false in
    let row_word (row : Rows.row) =
      Array.map (fun slot -> Option.value slot ~default:zero) row
    in
    (match rows with
    | [] -> const_word ctx ~w 0
    | first :: rest ->
      List.fold_left
        (fun acc row -> add_words ctx ~w acc (row_word row))
        (row_word first) rest)

let rec build ctx e =
  match Hashtbl.find_opt ctx.memo e with
  | Some nets -> nets
  | None ->
    let nets = build_uncached ctx e in
    Hashtbl.replace ctx.memo e nets;
    nets

and build_uncached ctx e =
  let w = node_width ctx e in
  match e with
  | Ast.Var v ->
    let bits = List.assoc v ctx.input_bits in
    if Env.is_signed v ctx.env then sign_extend ctx bits w
    else fit ctx bits w
  | Ast.Const c -> const_word ctx ~w (c land Eval.mask ctx.width)
  | Ast.Add _ | Ast.Sub _ | Ast.Neg _ when ctx.config.balance ->
    build_balanced_sum ctx ~w (flatten_sum e)
  | Ast.Add (a, b) -> add_words ctx ~w (build ctx a) (build ctx b)
  | Ast.Sub (a, b) -> sub_words ctx ~w (build ctx a) (build ctx b)
  | Ast.Neg a -> sub_words ctx ~w (const_word ctx ~w 0) (build ctx a)
  | Ast.Mul (a, b) -> mul_words ctx ~w (build ctx a) (build ctx b)
  | Ast.Pow _ -> invalid_arg "Conventional.build: Pow must be pre-expanded"

and build_balanced_sum ctx ~w terms =
  (* Operator-tree balancing: greedily pair the two earliest-ready signed
     operands, the word-level analogue of the bit-level Huffman greedy. *)
  let operands =
    List.map (fun (sign, term) -> (sign, fit ctx (build ctx term) w)) terms
  in
  let by_ready (_, a) (_, b) =
    Float.compare (ready_time ctx a) (ready_time ctx b)
  in
  let rec combine operands =
    match List.sort by_ready operands with
    | [] -> (1, const_word ctx ~w 0)
    | [ one ] -> one
    | (s1, a) :: (s2, b) :: rest ->
      let merged =
        match s1 >= 0, s2 >= 0 with
        | true, true -> (1, add_words ctx ~w a b)
        | true, false -> (1, sub_words ctx ~w a b)
        | false, true -> (1, sub_words ctx ~w b a)
        | false, false -> (-1, add_words ctx ~w a b)
      in
      combine (merged :: rest)
  in
  match combine operands with
  | 1, nets -> nets
  | _, nets -> sub_words ctx ~w (const_word ctx ~w 0) nets

let synthesize ?(config = default_config) netlist env expr ~width =
  Env.check_covers expr env;
  let expr = expand_pow expr in
  let input_bits = Dp_bitmatrix.Lower.declare_inputs netlist env expr in
  let ctx = { netlist; env; width; config; input_bits; memo = Hashtbl.create 64 } in
  fit ctx (build ctx expr) width
