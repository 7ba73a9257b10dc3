module Mono = struct
  (* A monomial is the sorted list of its variable factors, with
     multiplicity: x*x*y is ["x"; "x"; "y"].  The empty list is the constant
     monomial. *)
  type t = string list

  let compare = Stdlib.compare
  let one : t = []
  let var x : t = [ x ]
  let mul (a : t) (b : t) : t = List.sort String.compare (a @ b)
  let degree (m : t) = List.length m

  let pp ppf (m : t) =
    match m with
    | [] -> Fmt.string ppf "1"
    | _ -> Fmt.(list ~sep:(any "*") string) ppf m
end

module Mono_map = Map.Make (Mono)

type t = int Mono_map.t

let zero : t = Mono_map.empty

let add_term mono coeff sop =
  if coeff = 0 then sop
  else
    Mono_map.update mono
      (fun prev ->
        let c = Option.value prev ~default:0 + coeff in
        if c = 0 then None else Some c)
      sop

let merge a b = Mono_map.fold add_term b a
let scale k sop =
  if k = 0 then zero else Mono_map.map (fun c -> k * c) sop

let mul ?(checkpoint = ignore) a b =
  Mono_map.fold
    (fun ma ca acc ->
      Mono_map.fold
        (fun mb cb acc ->
          checkpoint ();
          add_term (Mono.mul ma mb) (ca * cb) acc)
        b acc)
    a zero

let rec pow ?checkpoint a n =
  if n = 0 then add_term Mono.one 1 zero
  else mul ?checkpoint a (pow ?checkpoint a (n - 1))

let of_expr ?checkpoint e =
  let rec go = function
    | Ast.Var x -> add_term (Mono.var x) 1 zero
    | Ast.Const c -> add_term Mono.one c zero
    | Ast.Add (a, b) -> merge (go a) (go b)
    | Ast.Sub (a, b) -> merge (go a) (scale (-1) (go b))
    | Ast.Mul (a, b) -> mul ?checkpoint (go a) (go b)
    | Ast.Neg a -> scale (-1) (go a)
    | Ast.Pow (a, n) -> pow ?checkpoint (go a) n
  in
  go e

let terms sop = Mono_map.bindings sop
let constant sop = Option.value (Mono_map.find_opt Mono.one sop) ~default:0
let term_count = Mono_map.cardinal
let max_degree sop =
  Mono_map.fold (fun m _ acc -> max acc (Mono.degree m)) sop 0

let eval assign sop =
  Mono_map.fold
    (fun mono coeff acc ->
      acc + (coeff * List.fold_left (fun p v -> p * assign v) 1 mono))
    sop 0

let to_expr sop =
  let term_expr mono coeff =
    let base =
      match mono with
      | [] -> Ast.Const (abs coeff)
      | first :: rest ->
        let prod =
          List.fold_left (fun e v -> Ast.Mul (e, Ast.Var v)) (Ast.Var first) rest
        in
        if abs coeff = 1 then prod else Ast.Mul (Ast.Const (abs coeff), prod)
    in
    (base, coeff < 0)
  in
  match terms sop with
  | [] -> Ast.Const 0
  | (m0, c0) :: rest ->
    let e0, neg0 = term_expr m0 c0 in
    let head = if neg0 then Ast.Neg e0 else e0 in
    List.fold_left
      (fun acc (m, c) ->
        let e, neg = term_expr m c in
        if neg then Ast.Sub (acc, e) else Ast.Add (acc, e))
      head rest

let pp ppf sop =
  match terms sop with
  | [] -> Fmt.string ppf "0"
  | bindings ->
    let pp_term ppf (m, c) = Fmt.pf ppf "%d*%a" c Mono.pp m in
    Fmt.(list ~sep:(any " + ") pp_term) ppf bindings
