type t = { timeout_s : float; max_cells : int; max_rows : int }

let default = { timeout_s = 5.0; max_cells = 200_000; max_rows = 4096 }
let unlimited = { timeout_s = 0.0; max_cells = 0; max_rows = 0 }

(* Saturating arithmetic: row estimates only need to be compared against
   a ceiling, so everything clamps at [cap]. *)
let cap = 1 lsl 40
let sat x = if x > cap then cap else x
let sat_add a b = sat (a + b)
let sat_mul a b = if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b

let bits_of_const c =
  let rec go n v = if v = 0 then max 1 n else go (n + 1) (v lsr 1) in
  go 0 (abs c)

(* Per subtree: (estimated addend rows, estimated value width in bits).
   A product of matrices of r_a x w_a and r_b x w_b addends yields about
   r_a * r_b * min(w_a, w_b) partial-product rows. *)
let rec rows_width widths = function
  | Dp_expr.Ast.Var x ->
    (1, match List.assoc_opt x widths with Some w -> w | None -> 1)
  | Dp_expr.Ast.Const c -> (1, bits_of_const c)
  | Dp_expr.Ast.Add (a, b) | Dp_expr.Ast.Sub (a, b) ->
    let ra, wa = rows_width widths a and rb, wb = rows_width widths b in
    (sat_add ra rb, sat (1 + max wa wb))
  | Dp_expr.Ast.Neg a ->
    let r, w = rows_width widths a in
    (r, sat (w + 1))
  | Dp_expr.Ast.Mul (a, b) ->
    let ra, wa = rows_width widths a and rb, wb = rows_width widths b in
    (sat_mul (sat_mul ra rb) (min wa wb), sat_add wa wb)
  | Dp_expr.Ast.Pow (a, n) ->
    let r, w = rows_width widths a in
    if n = 0 then (1, 1)
    else
      let rec go acc_r acc_w k =
        if k = 0 then (acc_r, acc_w)
        else go (sat_mul (sat_mul acc_r r) (min acc_w w)) (sat_add acc_w w) (k - 1)
      in
      go r w (n - 1)

let estimate_rows (case : Case.t) =
  let widths =
    List.map (fun (v : Case.var_spec) -> (v.name, v.width)) case.vars
  in
  List.fold_left
    (fun acc (_, e, _) -> max acc (fst (rows_width widths e)))
    0 case.ports

let check_static b case =
  if b.max_rows <= 0 then Ok ()
  else
    let rows = estimate_rows case in
    if rows <= b.max_rows then Ok ()
    else
      Error
        (Dp_diag.Diag.errorf ~code:"DP-BUDGET003" ~subsystem:"budget"
           ~context:
             [ ("estimated_rows", string_of_int rows);
               ("max_rows", string_of_int b.max_rows) ]
           "estimated addend matrix height %d exceeds the budget of %d rows"
           rows b.max_rows)

let check_cells b netlist =
  if b.max_cells <= 0 then Ok ()
  else
    let cells = Dp_netlist.Netlist.cell_count netlist in
    if cells <= b.max_cells then Ok ()
    else
      Error
        (Dp_diag.Diag.errorf ~code:"DP-CANCEL003" ~subsystem:"budget"
           ~context:
             [ ("cells", string_of_int cells);
               ("max_cells", string_of_int b.max_cells) ]
           "netlist has %d cells, over the budget of %d" cells b.max_cells)

let governor ?deadline ?max_heap_words b =
  let timeout = if b.timeout_s > 0.0 then Some b.timeout_s else None in
  let deadline_s =
    match deadline with
    | None -> timeout
    | Some d ->
      let left = d -. Unix.gettimeofday () in
      Some (match timeout with Some t -> Float.min t left | None -> left)
  in
  Dp_gov.Gov.create ?deadline_s
    ?max_cells:(if b.max_cells > 0 then Some b.max_cells else None)
    ?max_heap_words ()
