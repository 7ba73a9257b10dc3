module String_map = Map.Make (String)

type var_info = {
  width : int;
  signed : bool;
  arrival : float array;
  prob : float array;
}

type t = var_info String_map.t

let empty = String_map.empty

let add ?arrival ?prob ?(signed = false) name ~width env =
  if width < 1 then invalid_arg "Env.add: width must be >= 1";
  let arrival =
    match arrival with
    | None -> Array.make width 0.0
    | Some a ->
      if Array.length a <> width then invalid_arg "Env.add: arrival length";
      Array.iter
        (fun x ->
          if not (Float.is_finite x && x >= 0.0) then
            invalid_arg "Env.add: arrival must be finite and >= 0")
        a;
      Array.copy a
  in
  let prob =
    match prob with
    | None -> Array.make width 0.5
    | Some p ->
      if Array.length p <> width then invalid_arg "Env.add: prob length";
      Array.iter
        (fun x ->
          (* written so that NaN fails too *)
          if not (x >= 0.0 && x <= 1.0) then
            invalid_arg "Env.add: prob out of [0,1]")
        p;
      Array.copy p
  in
  String_map.add name { width; signed; arrival; prob } env

let add_uniform ?(arrival = 0.0) ?(prob = 0.5) ?signed name ~width env =
  add name ~width ?signed
    ~arrival:(Array.make width arrival)
    ~prob:(Array.make width prob)
    env

let find name env =
  match String_map.find_opt name env with
  | Some info -> info
  | None -> invalid_arg (Printf.sprintf "Env.find: unbound variable %s" name)

let find_opt name env = String_map.find_opt name env
let mem name env = String_map.mem name env
let width name env = (find name env).width
let is_signed name env = (find name env).signed
let arrival name ~bit env = (find name env).arrival.(bit)
let prob name ~bit env = (find name env).prob.(bit)
let bindings env = String_map.bindings env
let names env = List.map fst (String_map.bindings env)

let of_widths widths =
  List.fold_left (fun env (n, w) -> add_uniform n ~width:w env) empty widths

let check_covers expr env =
  List.iter
    (fun v ->
      if not (mem v env) then
        invalid_arg (Printf.sprintf "Env.check_covers: %s has no binding" v))
    (Ast.vars expr)

let add_res ?arrival ?prob ?signed name ~width env =
  match add ?arrival ?prob ?signed name ~width env with
  | env -> Ok env
  | exception Invalid_argument msg ->
    Dp_diag.Diag.error
      (Dp_diag.Diag.v
         ~code:(if width < 1 then "DP-ENV001" else "DP-ENV002")
         ~subsystem:"env"
         ~context:[ ("variable", name); ("width", string_of_int width) ]
         msg)

let check_covers_res expr env =
  match List.filter (fun v -> not (mem v env)) (Ast.vars expr) with
  | [] -> Ok ()
  | missing ->
    Dp_diag.Diag.error
      (Dp_diag.Diag.errorf ~code:"DP-ENV003" ~subsystem:"env"
         ~context:(List.map (fun v -> ("unbound", v)) missing)
         "%d variable(s) of the expression have no binding: %s"
         (List.length missing)
         (String.concat ", " missing))

let pp ppf env =
  let pp_binding ppf (name, info) =
    Fmt.pf ppf "%s:%s%d" name (if info.signed then "s" else "") info.width
  in
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_binding) (bindings env)
