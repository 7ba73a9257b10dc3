type t = { lo : int; hi : int }

let make lo hi =
  if lo > hi then invalid_arg "Range.make: lo > hi";
  { lo; hi }

let of_width w = { lo = 0; hi = Eval.mask w }

let of_signed_width w =
  if w = 1 then { lo = -1; hi = 0 }
  else { lo = -(1 lsl (w - 1)); hi = (1 lsl (w - 1)) - 1 }
let const c = { lo = c; hi = c }

(* Bounds saturate instead of wrapping.  An upper bound of [max_int]
   means "no upper bound" and a lower bound of [min_int] "no lower bound";
   every operation below keeps them so.  Any other bound that leaves the
   int range is clamped to the nearer end, which only widens the range:
   the true value always lies inside it, however large the operands. *)

let clamp_add a b =
  let s = a + b in
  if a >= 0 && b >= 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let add a b =
  {
    lo = (if a.lo = min_int || b.lo = min_int then min_int else clamp_add a.lo b.lo);
    hi = (if a.hi = max_int || b.hi = max_int then max_int else clamp_add a.hi b.hi);
  }

let neg a =
  {
    lo =
      (if a.hi = max_int then min_int
       else if a.hi = min_int then max_int
       else -a.hi);
    hi = (if a.lo = min_int then max_int else -a.lo);
  }

let sub a b = add a (neg b)

let mul a b =
  (* [x * y] clamped, for ends [x] of [a] and [y] of [b].  [min_int] is
     always an unbounded end, [max_int] only as an upper bound: [above]
     says an end in the product is one. *)
  let corner x y ~above =
    if x = 0 || y = 0 then 0
    else
      let extreme = if (x < 0) = (y < 0) then max_int else min_int in
      if above || x = min_int || y = min_int || abs x > max_int / abs y then extreme
      else x * y
  in
  let above_a = a.hi = max_int and above_b = b.hi = max_int in
  let products =
    [
      corner a.lo b.lo ~above:false;
      corner a.lo b.hi ~above:above_b;
      corner a.hi b.lo ~above:above_a;
      corner a.hi b.hi ~above:(above_a || above_b);
    ]
  in
  {
    lo = List.fold_left min max_int products;
    hi = List.fold_left max min_int products;
  }

let rec pow a n =
  if n = 0 then const 1
  else if n = 1 then a
  else mul a (pow a (n - 1))

let rec of_expr env = function
  | Ast.Var x ->
    let info = Env.find x env in
    if info.signed then of_signed_width info.width else of_width info.width
  | Ast.Const c -> const c
  | Ast.Add (a, b) -> add (of_expr env a) (of_expr env b)
  | Ast.Sub (a, b) -> sub (of_expr env a) (of_expr env b)
  | Ast.Mul (a, b) -> mul (of_expr env a) (of_expr env b)
  | Ast.Neg a -> neg (of_expr env a)
  | Ast.Pow (a, n) -> pow (of_expr env a) n

let bits_for_nonneg v =
  (* minimum width so that 0 <= v < 2^w, with w >= 1; every int fits in 62 *)
  let rec go w = if w >= 62 || v < 1 lsl w then w else go (w + 1) in
  go 1

(* like [bits_for_nonneg] but 0 needs no bits — used for the magnitude part
   of a two's-complement width *)
let bits0 v = if v = 0 then 0 else bits_for_nonneg v

let width r =
  if r.lo >= 0 then bits_for_nonneg r.hi
  else
    (* two's-complement width holding both extremes: a sign bit plus enough
       magnitude bits for hi and for (-lo - 1) *)
    let w_hi = 1 + bits0 (max r.hi 0) in
    let w_lo = 1 + bits0 (lnot r.lo) in
    max w_hi w_lo

(* 62 is the widest output the flow evaluates ([Eval.mask]); a wider
   range computes its value modulo 2^62. *)
let natural_width env e = min 62 (width (of_expr env e))

let pp ppf r = Fmt.pf ppf "[%d, %d]" r.lo r.hi
