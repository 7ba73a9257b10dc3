open Dp_netlist

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg
let checkf_eps eps msg = Alcotest.check (Alcotest.float eps) msg
let case name f = Alcotest.test_case name `Quick f

let mk_netlist ?(tech = Dp_tech.Tech.lcb_like) () = Netlist.create ~tech

(* A single column of independent input bits with the given arrival times
   (and optional probabilities), as used throughout the SC_T/SC_LP tests. *)
let mk_column ?probs netlist arrivals =
  let width = Array.length arrivals in
  let prob = match probs with None -> Array.make width 0.5 | Some p -> p in
  Array.to_list (Netlist.add_input netlist "col" ~width ~arrival:arrivals ~prob)

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
