type var_spec = {
  name : string;
  width : int;
  signed : bool;
  arrival : float;
  prob : float;
}

type t = {
  vars : var_spec list;
  ports : (string * Dp_expr.Ast.t * int) list;
}

let make_var ?(signed = false) ?(arrival = 0.0) ?(prob = 0.5) name ~width =
  { name; width; signed; arrival; prob }

let single ?(vars = []) expr ~width = { vars; ports = [ ("out", expr, width) ] }

let single_port t =
  match t.ports with [ (_, e, w) ] -> Some (e, w) | _ -> None

let env t =
  List.fold_left
    (fun env v ->
      Dp_expr.Env.add_uniform v.name ~width:v.width ~signed:v.signed
        ~arrival:v.arrival ~prob:v.prob env)
    Dp_expr.Env.empty t.vars

let used_vars t =
  List.sort_uniq String.compare
    (List.concat_map (fun (_, e, _) -> Dp_expr.Ast.vars e) t.ports)

let drop_unused_vars t =
  let used = used_vars t in
  { t with vars = List.filter (fun v -> List.mem v.name used) t.vars }

let var_spec_to_string v =
  Fmt.str "%s:%d%s:%g:%g" v.name v.width (if v.signed then "s" else "")
    v.arrival v.prob

let var_spec_of_string s =
  let err fmt = Fmt.kstr (fun m -> Error (s ^ ": " ^ m)) fmt in
  let width_of w =
    let w, signed =
      let l = String.length w in
      if l > 0 && (w.[l - 1] = 's' || w.[l - 1] = 'S') then
        (String.sub w 0 (l - 1), true)
      else (w, false)
    in
    match int_of_string_opt w with
    | Some n when n >= 1 -> Ok (n, signed)
    | Some n -> err "width must be >= 1 (got %d)" n
    | None -> err "width %S is not an integer" w
  in
  let float_of what s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> Ok f
    | _ -> err "%s %S is not a finite number" what s
  in
  let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e in
  let checked name w t p =
    if name = "" then err "empty variable name"
    else
      let* width, signed = width_of w in
      let* arrival = match t with None -> Ok 0.0 | Some t -> float_of "arrival" t in
      let* prob = match p with None -> Ok 0.5 | Some p -> float_of "probability" p in
      if arrival < 0.0 then err "arrival must be >= 0"
      else if not (prob >= 0.0 && prob <= 1.0) then
        err "probability must be within [0,1]"
      else Ok { name; width; signed; arrival; prob }
  in
  match String.split_on_char ':' s with
  | [ name; w ] -> checked name w None None
  | [ name; w; t ] -> checked name w (Some t) None
  | [ name; w; t; p ] -> checked name w (Some t) (Some p)
  | _ -> err "expected name:width[s][:arrival[:prob]]"

let strategy_cli_name s = String.lowercase_ascii (Dp_flow.Strategy.name s)

let synth_command ?strategy ?adder t =
  let buf = Buffer.create 128 in
  let add fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  (match t.ports with
  | [ (_, e, w) ] ->
    add "dpsyn synth -e \"%s\" --width %d" (Dp_expr.Ast.to_string e) w
  | ports ->
    let stmt (name, e, _) = Fmt.str "%s = %s" name (Dp_expr.Ast.to_string e) in
    add "dpsyn synth-multi -p \"%s\"" (String.concat "; " (List.map stmt ports)));
  List.iter (fun v -> add " -v %s" (var_spec_to_string v)) t.vars;
  (match strategy with
  | Some s -> add " --strategy %s" (strategy_cli_name s)
  | None -> ());
  (match adder with
  | Some a -> add " --adder %s" (Dp_adders.Adder.name a)
  | None -> ());
  (match t.ports with
  | [ _ ] -> add " --check-level strict --check"
  | _ -> add " --check");
  Buffer.contents buf

let equal_var a b =
  String.equal a.name b.name && a.width = b.width && a.signed = b.signed
  && Float.equal a.arrival b.arrival
  && Float.equal a.prob b.prob

let equal a b =
  List.equal equal_var a.vars b.vars
  && List.equal
       (fun (n1, e1, w1) (n2, e2, w2) ->
         String.equal n1 n2 && Dp_expr.Ast.equal e1 e2 && w1 = w2)
       a.ports b.ports

let size t =
  List.length t.vars
  + List.fold_left (fun acc (_, e, _) -> acc + Dp_expr.Ast.size e) 0 t.ports

let pp ppf t =
  let pp_port ppf (name, e, w) =
    Fmt.pf ppf "%s[%d:0] = %a" name (w - 1) Dp_expr.Ast.pp e
  in
  Fmt.pf ppf "@[<v>%a@,vars: %a@]"
    Fmt.(list ~sep:(any "; ") pp_port)
    t.ports
    Fmt.(list ~sep:(any " ") (using var_spec_to_string string))
    t.vars
