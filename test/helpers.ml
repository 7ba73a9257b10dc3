open Dp_netlist

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf_eps eps msg = Alcotest.check (Alcotest.float eps) msg
let case name f = Alcotest.test_case name `Quick f

let mk_netlist ?(tech = Dp_tech.Tech.lcb_like) () = Netlist.create ~tech

(* [Sop.of_expr e], or [None] once any intermediate sum of products passes
   [max_terms] terms.  A deep product of sums expands exponentially, so
   expanding the whole expression before checking its size can run for
   minutes.  Bounded, every multiplication costs at most [max_terms]^2
   term products. *)
let bounded_sop ~max_terms e =
  let open Dp_expr in
  let bounded sop = if Sop.term_count sop > max_terms then raise Exit else sop in
  let rec expand = function
    | Ast.Var x -> Sop.add_term (Sop.Mono.var x) 1 Sop.zero
    | Ast.Const c -> Sop.add_term Sop.Mono.one c Sop.zero
    | Ast.Add (a, b) -> bounded (Sop.merge (expand a) (expand b))
    | Ast.Sub (a, b) -> bounded (Sop.merge (expand a) (Sop.scale (-1) (expand b)))
    | Ast.Mul (a, b) -> bounded (Sop.mul (expand a) (expand b))
    | Ast.Neg a -> Sop.scale (-1) (expand a)
    | Ast.Pow (a, n) -> bounded (Sop.pow (expand a) n)
  in
  match expand e with sop -> Some sop | exception Exit -> None

(* A single column of independent input bits with the given arrival times
   (and optional probabilities), as used throughout the SC_T/SC_LP tests. *)
let mk_column ?probs netlist arrivals =
  let width = Array.length arrivals in
  let prob = match probs with None -> Array.make width 0.5 | Some p -> p in
  Array.to_list (Netlist.add_input netlist "col" ~width ~arrival:arrivals ~prob)

(* Random columns for the reducer identity properties.  Arrivals come
   from a tiny integer set and probabilities from a tiny symmetric set
   (|q| of 0.2 and 0.8 coincide), so ties occur constantly.  Constants
   and repeated nets join the fresh inputs: an FA with a constant input
   folds to an existing net or to an HA, whose sum can order before the
   sums pushed earlier. *)
type addend =
  | Fresh of float * float  (** a new input bit: arrival, probability *)
  | Const of bool
  | Again of int  (** fresh input [k mod n] of the column's [n], again *)

let gen_column_spec =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (frequency
         [
           ( 8,
             map2
               (fun a p -> Fresh (a, p))
               (map float_of_int (int_range 0 4))
               (oneofl [ 0.05; 0.2; 0.5; 0.8; 0.95 ]) );
           (1, map (fun b -> Const b) bool);
           (1, map (fun k -> Again k) (int_range 0 39));
         ]))

let print_column_spec spec =
  String.concat "; "
    (List.map
       (function
         | Fresh (a, p) -> Printf.sprintf "@%g p%g" a p
         | Const b -> Printf.sprintf "const %b" b
         | Again k -> Printf.sprintf "again %d" k)
       spec)

let build_column netlist spec =
  let fresh =
    List.filter_map
      (function Fresh (a, p) -> Some (a, p) | Const _ | Again _ -> None)
      spec
  in
  let inputs =
    Netlist.add_input netlist "col" ~width:(List.length fresh)
      ~arrival:(Array.of_list (List.map fst fresh))
      ~prob:(Array.of_list (List.map snd fresh))
  in
  let n = Array.length inputs and next = ref 0 in
  List.map
    (function
      | Fresh _ ->
        incr next;
        inputs.(!next - 1)
      | Const b -> Netlist.const netlist b
      | Again k ->
        if n = 0 then Netlist.const netlist false else inputs.(k mod n))
    spec

(* ------------------------------------------------------------------ *)
(* Pure float models of FA allocation, used to brute-force the paper's
   optimality claims without building netlists. *)

(* All ways to pick [k] elements (with the complement) from a list. *)
let rec choose k items =
  if k = 0 then [ ([], items) ]
  else
    match items with
    | [] -> []
    | x :: rest ->
      let with_x =
        List.map (fun (picked, others) -> (x :: picked, others)) (choose (k - 1) rest)
      in
      let without_x =
        List.map (fun (picked, others) -> (picked, x :: others)) (choose k rest)
      in
      with_x @ without_x

type timed_alloc = { final : float list; carries : float list }

(* Enumerate every allocation of a single column under the paper's rules
   (FA on any 3 while more than 3 remain; HA on any 2 when exactly 3), with
   the pure timing semantics sum = max + ds, carry = max + dc.  Returns the
   reduced column (sorted) and carry times (sorted) of every allocation. *)
let enumerate_timed ~ds ~dc ~ha_ds ~ha_dc times =
  let rec go pool carries acc =
    match List.length pool with
    | 0 | 1 | 2 ->
      { final = List.sort Float.compare pool;
        carries = List.sort Float.compare carries }
      :: acc
    | 3 ->
      List.fold_left
        (fun acc (picked, others) ->
          let t = List.fold_left Float.max neg_infinity picked in
          go ((t +. ha_ds) :: others) ((t +. ha_dc) :: carries) acc)
        acc (choose 2 pool)
    | _ ->
      List.fold_left
        (fun acc (picked, others) ->
          let t = List.fold_left Float.max neg_infinity picked in
          go ((t +. ds) :: others) ((t +. dc) :: carries) acc)
        acc (choose 3 pool)
  in
  go times [] []

(* The same enumeration for SC_LP's power objective: pools carry q-values;
   FA on any 3 (after a pseudo-zero joins an odd pool), accumulating the
   switching E = ws(0.25 - qs^2) + wc(0.25 - qc^2) of each created FA. *)
type power_alloc = { energy : float; pseudo : float }

let enumerate_power ~ws ~wc qs =
  let qs = if List.length qs mod 2 = 1 then -0.5 :: qs else qs in
  let rec go pool energy acc =
    if List.length pool <= 2 then { energy; pseudo = 0.0 } :: acc
    else
      List.fold_left
        (fun acc (picked, others) ->
          match picked with
          | [ qx; qy; qz ] ->
            let q_sum = 4.0 *. qx *. qy *. qz in
            let q_carry =
              (0.5 *. (qx +. qy +. qz)) -. (2.0 *. qx *. qy *. qz)
            in
            let e =
              (ws *. (0.25 -. (q_sum *. q_sum)))
              +. (wc *. (0.25 -. (q_carry *. q_carry)))
            in
            go (q_sum :: others) (energy +. e) acc
          | _ -> acc)
        acc (choose 3 pool)
  in
  go qs 0.0 []

(* Whether [needle] occurs in [haystack]. *)
let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* Assignment helper for simulation tests. *)
let assign_of alist name =
  match List.assoc_opt name alist with
  | Some v -> v
  | None -> Alcotest.failf "unbound variable %s" name

(* ------------------------------------------------------------------ *)
(* Serving: sockets, scratch directories, one-shot requests *)

(* [f ~input ~output] for every cell edge: each input pin's net against
   each of the cell's output nets. *)
let iter_edges netlist f =
  for id = 0 to Netlist.cell_count netlist - 1 do
    let ports = Dp_tech.Cell_kind.output_count (Netlist.cell_kind netlist id) in
    for port = 0 to ports - 1 do
      let output = Netlist.output_net netlist id ~port in
      for k = 0 to Netlist.pin_count netlist id - 1 do
        f ~input:(Netlist.pin netlist id k) ~output
      done
    done
  done

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpsyn-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  if Sys.file_exists path then Sys.remove path;
  path

(* A unique empty scratch directory (crash corpora, disk caches). *)
let fresh_dir tag =
  let path = Filename.temp_file ("dpsyn-" ^ tag) "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let faild d = Alcotest.fail (Dp_diag.Diag.to_string d)

(* The dpsyn binary of this build (the test stanza depends on it): every
   shard and soak router a test starts is an exec'd [dpsyn serve]. *)
let dpsyn =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/dpsyn.exe"

(* A shard's argv: a one-worker server with a 32-entry LRU over
   [cache_dir], shared by its siblings. *)
let shard_spawn ~cache_dir =
  Dp_server.Exec.argv
    {
      (Dp_server.Exec.default ~dpsyn) with
      workers = 1;
      cache_dir = Some cache_dir;
      cache_capacity = 32;
    }

(* The default soak of this build's binary, on a fresh socket. *)
let soak_config () = Dp_server.Soak.default_config ~dpsyn ~socket_path:(fresh_socket ())

let rpc socket request =
  match Dp_server.Client.once ~socket request with
  | Ok r -> r
  | Error d -> faild d

let synth_json ?(expr = "x*y + z") ?(id = 1) ?deadline_ms () =
  let module Json = Dp_server.Json in
  Json.Obj
    ([
       ("id", Json.Int id);
       ("op", Json.Str "synth");
       ("expr", Json.Str expr);
       ( "vars",
         Json.List
           (List.map
              (fun n ->
                Json.Obj [ ("name", Json.Str n); ("width", Json.Int 8) ])
              [ "x"; "y"; "z" ]) );
     ]
    @
    match deadline_ms with
    | Some d -> [ ("deadline_ms", Json.Float d) ]
    | None -> [])

let get path j =
  List.fold_left
    (fun acc k -> Option.bind acc (Dp_server.Json.member k))
    (Some j) path

let get_bool path j = Option.bind (get path j) Dp_server.Json.to_bool
