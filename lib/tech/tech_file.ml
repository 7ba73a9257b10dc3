(* A minimal text format for technology files:

     # comment
     name my_library
     fa_sum_delay 0.45
     fa_carry_delay 0.32
     ...

   The keys are [name] and the keys of [Tech.params]; unknown keys are
   rejected, and omitted keys inherit from the base technology (lcb_like
   unless another base is given).  Numbers use OCaml float syntax. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let apply (t : Tech.t) key value =
  if key = "name" then { t with name = value }
  else
    match List.find_opt (fun (p : Tech.param) -> p.key = key) Tech.params with
    | None -> fail "unknown key: %s" key
    | Some p -> (
      match float_of_string_opt value with
      | Some v -> p.update t v
      | None -> fail "%s: not a number: %s" key value)

let validate (t : Tech.t) =
  List.iter
    (fun (p : Tech.param) ->
      let v = p.read t in
      match p.key with
      | "counter_fusion" ->
        if not (v > 0.0 && v <= 1.0) then
          fail "counter_fusion must be in (0, 1] (got %g)" v
      | key ->
        if not (Float.is_finite v && v >= 0.0) then
          fail "%s must be finite and >= 0 (got %g)" key v)
    Tech.params;
  t

let of_string ?(base = Tech.lcb_like) s =
  let lines = String.split_on_char '\n' s in
  let parse_line t (lineno, line) =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let line = String.trim line in
    if line = "" then t
    else
      match String.index_opt line ' ' with
      | None -> fail "line %d: expected 'key value'" lineno
      | Some i ->
        let key = String.sub line 0 i in
        let value = String.trim (String.sub line i (String.length line - i)) in
        apply t key value
  in
  validate
    (List.fold_left parse_line base
       (List.mapi (fun i l -> (i + 1, l)) lines))

let of_file ?base path =
  let contents = In_channel.with_open_text path In_channel.input_all in
  of_string ?base contents

let of_string_res ?base s =
  match of_string ?base s with
  | t -> Ok t
  | exception Parse_error msg ->
    Dp_diag.Diag.error (Dp_diag.Diag.v ~code:"DP-TECH001" ~subsystem:"tech" msg)

let of_file_res ?base path =
  match of_file ?base path with
  | t -> Ok t
  | exception Parse_error msg ->
    Dp_diag.Diag.error
      (Dp_diag.Diag.v ~code:"DP-TECH001" ~subsystem:"tech"
         ~context:[ ("file", path) ]
         msg)
  | exception Sys_error msg ->
    Dp_diag.Diag.error
      (Dp_diag.Diag.v ~code:"DP-TECH002" ~subsystem:"tech"
         ~context:[ ("file", path) ]
         msg)

let to_string (t : Tech.t) =
  String.concat "\n"
    (Printf.sprintf "name %s" t.name
    :: List.map
         (fun (p : Tech.param) -> Printf.sprintf "%s %.17g" p.key (p.read t))
         Tech.params)
  ^ "\n"
