(* A minimal text format for technology files:

     # comment
     name my_library
     fa_sum_delay 0.45
     fa_carry_delay 0.32
     ...

   Unknown keys are rejected; omitted keys inherit from the base technology
   (lcb_like unless another base is given).  Numbers use OCaml float
   syntax. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let apply (t : Tech.t) key value =
  let f () =
    match float_of_string_opt value with
    | Some v -> v
    | None -> fail "%s: not a number: %s" key value
  in
  match key with
  | "name" -> { t with name = value }
  | "fa_sum_delay" -> { t with fa_sum_delay = f () }
  | "fa_carry_delay" -> { t with fa_carry_delay = f () }
  | "ha_sum_delay" -> { t with ha_sum_delay = f () }
  | "ha_carry_delay" -> { t with ha_carry_delay = f () }
  | "and2_delay" -> { t with and2_delay = f () }
  | "or2_delay" -> { t with or2_delay = f () }
  | "xor2_delay" -> { t with xor2_delay = f () }
  | "not_delay" -> { t with not_delay = f () }
  | "buf_delay" -> { t with buf_delay = f () }
  | "fa_area" -> { t with fa_area = f () }
  | "ha_area" -> { t with ha_area = f () }
  | "and2_area" -> { t with and2_area = f () }
  | "or2_area" -> { t with or2_area = f () }
  | "xor2_area" -> { t with xor2_area = f () }
  | "not_area" -> { t with not_area = f () }
  | "buf_area" -> { t with buf_area = f () }
  | "fa_sum_energy" -> { t with fa_sum_energy = f () }
  | "fa_carry_energy" -> { t with fa_carry_energy = f () }
  | "ha_sum_energy" -> { t with ha_sum_energy = f () }
  | "ha_carry_energy" -> { t with ha_carry_energy = f () }
  | "gate_energy" -> { t with gate_energy = f () }
  | "counter_fusion" -> { t with counter_fusion = f () }
  | _ -> fail "unknown key: %s" key

let validate (t : Tech.t) =
  let nonneg name v =
    if not (Float.is_finite v && v >= 0.0) then
      fail "%s must be finite and >= 0 (got %g)" name v
  in
  nonneg "fa_sum_delay" t.fa_sum_delay;
  nonneg "fa_carry_delay" t.fa_carry_delay;
  nonneg "ha_sum_delay" t.ha_sum_delay;
  nonneg "ha_carry_delay" t.ha_carry_delay;
  nonneg "and2_delay" t.and2_delay;
  nonneg "or2_delay" t.or2_delay;
  nonneg "xor2_delay" t.xor2_delay;
  nonneg "not_delay" t.not_delay;
  nonneg "buf_delay" t.buf_delay;
  nonneg "fa_area" t.fa_area;
  nonneg "ha_area" t.ha_area;
  nonneg "and2_area" t.and2_area;
  nonneg "or2_area" t.or2_area;
  nonneg "xor2_area" t.xor2_area;
  nonneg "not_area" t.not_area;
  nonneg "buf_area" t.buf_area;
  nonneg "fa_sum_energy" t.fa_sum_energy;
  nonneg "fa_carry_energy" t.fa_carry_energy;
  nonneg "ha_sum_energy" t.ha_sum_energy;
  nonneg "ha_carry_energy" t.ha_carry_energy;
  nonneg "gate_energy" t.gate_energy;
  if not (t.counter_fusion > 0.0 && t.counter_fusion <= 1.0) then
    fail "counter_fusion must be in (0, 1] (got %g)" t.counter_fusion;
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
    [
      Printf.sprintf "name %s" t.name;
      Printf.sprintf "fa_sum_delay %.17g" t.fa_sum_delay;
      Printf.sprintf "fa_carry_delay %.17g" t.fa_carry_delay;
      Printf.sprintf "ha_sum_delay %.17g" t.ha_sum_delay;
      Printf.sprintf "ha_carry_delay %.17g" t.ha_carry_delay;
      Printf.sprintf "and2_delay %.17g" t.and2_delay;
      Printf.sprintf "or2_delay %.17g" t.or2_delay;
      Printf.sprintf "xor2_delay %.17g" t.xor2_delay;
      Printf.sprintf "not_delay %.17g" t.not_delay;
      Printf.sprintf "buf_delay %.17g" t.buf_delay;
      Printf.sprintf "fa_area %.17g" t.fa_area;
      Printf.sprintf "ha_area %.17g" t.ha_area;
      Printf.sprintf "and2_area %.17g" t.and2_area;
      Printf.sprintf "or2_area %.17g" t.or2_area;
      Printf.sprintf "xor2_area %.17g" t.xor2_area;
      Printf.sprintf "not_area %.17g" t.not_area;
      Printf.sprintf "buf_area %.17g" t.buf_area;
      Printf.sprintf "fa_sum_energy %.17g" t.fa_sum_energy;
      Printf.sprintf "fa_carry_energy %.17g" t.fa_carry_energy;
      Printf.sprintf "ha_sum_energy %.17g" t.ha_sum_energy;
      Printf.sprintf "ha_carry_energy %.17g" t.ha_carry_energy;
      Printf.sprintf "gate_energy %.17g" t.gate_energy;
      Printf.sprintf "counter_fusion %.17g" t.counter_fusion;
    ]
  ^ "\n"
