(* The branch-and-bound search that found the counter bodies of
   [Dp_tech.Recipe], kept as the proof that the table is minimal (see
   [Test_counters], which asserts the search reproduces every entry).
   Not used outside the tests. *)

open Dp_tech
open Recipe

(* ------------------------------------------------------------------ *)
(* Branch-and-bound exact synthesis.

   State: per relative weight 0..2, a multiset of signals, each a truth
   table over the m input pins plus a level (unit depth).  Moves apply an
   FA to three or an HA to two same-weight signals at weights 0-1,
   replacing them with the block's sum at that weight and pushing its
   carry one weight up.  Every move preserves the arithmetic invariant
     sum over signals of table * 2^weight  =  popcount (pointwise),
   so once the signal counts match the goal the surviving functions are
   forced — reaching the goal shape IS functional correctness, and the
   search needs no per-state equivalence checking.

   Cost is lexicographic (area, depth) with area in HA units (FA = 2,
   HA = 1), iterative deepening on area from the potential lower bound,
   and first-found tie-breaking under a deterministic move order (weights
   ascending, FA before HA, combinations in index order over the sorted
   state).  Input tables sort in pin order, so the first combination
   tried is always the lowest pins — the canonical bodies the technology
   model's closed-form delays were derived from fall out of the search
   rather than being trusted. *)

type signal = { tt : Tt.t; level : int }

let compare_entry ((a : signal), _) ((b : signal), _) =
  let c = Tt.compare a.tt b.tt in
  if c <> 0 then c else Int.compare a.level b.level

let goal_counts (kind : Cell_kind.t) =
  match kind with
  | C42 -> [| 1; 2; 0 |]
  | C53 | C63 | C73 -> [| 1; 1; 1 |]
  | _ -> invalid_arg "Exact.goal_counts: not a counter"

(* The potential sum over signals of (3 - weight): an FA at weight w
   sheds 4 - w, an HA sheds 1.  The best shed per area unit is 2 (an FA
   at weight 0), giving an admissible area bound of ceil(deficit / 2). *)
let potential counts = (3 * counts.(0)) + (2 * counts.(1)) + counts.(2)

let lower_bound p goal_p =
  let d = p - goal_p in
  if d <= 0 then 0 else (d + 1) / 2

let fa_cost = 2
let ha_cost = 1

type solution = {
  area : int;
  depth : int;
  blocks_rev : block list;
  outs : sig_ref array;
}

let synthesize (kind : Cell_kind.t) =
  if not (Cell_kind.is_counter kind) then
    invalid_arg "Exact.synthesize: not a counter";
  let m = Cell_kind.arity kind in
  let goal = goal_counts kind in
  let goal_p = potential goal in
  let init : (signal * sig_ref) list array =
    [| List.init m (fun i -> ({ tt = Tt.pin m i; level = 0 }, Pin i)); []; [] |]
  in
  let best = ref None in
  let memo : (signal list array, int) Hashtbl.t = Hashtbl.create 4096 in
  let counts st = Array.map List.length st in
  (* Accept a goal-shaped state: map the survivors to ports (by weight for
     the m:3 counters; for C42 the cin-independent weight-1 signal is the
     chain carry-out) and keep it if it beats the incumbent. *)
  let try_goal st area blocks_rev =
    let outs =
      match kind with
      | Cell_kind.C42 -> (
        match st.(1) with
        | [ a; b ] -> (
          let indep (s, _) = Tt.independent_of m s.tt ~pin:4 in
          match indep a, indep b with
          | true, false -> Some [| snd (List.hd st.(0)); snd b; snd a |]
          | false, true -> Some [| snd (List.hd st.(0)); snd a; snd b |]
          | _ -> None)
        | _ -> None)
      | _ ->
        Some
          [| snd (List.hd st.(0)); snd (List.hd st.(1)); snd (List.hd st.(2)) |]
    in
    match outs with
    | None -> ()
    | Some outs ->
      let depth =
        Array.fold_left
          (fun acc lst ->
            List.fold_left (fun acc ((s : signal), _) -> max acc s.level) acc lst)
          0 st
      in
      let better =
        match !best with
        | None -> true
        | Some b -> area < b.area || (area = b.area && depth < b.depth)
      in
      if better then best := Some { area; depth; blocks_rev; outs }
  in
  let rec dfs st area limit nblocks blocks_rev =
    let c = counts st in
    if c = goal then try_goal st area blocks_rev
    else begin
      let p = potential c in
      if
        p > goal_p
        && c.(2) <= goal.(2)
        && area + lower_bound p goal_p <= limit
      then begin
        let key = Array.map (List.map fst) st in
        let skip =
          match Hashtbl.find_opt memo key with
          | Some a -> a <= area
          | None -> false
        in
        if not skip then begin
          Hashtbl.replace memo key area;
          for weight = 0 to 1 do
            let arr = Array.of_list st.(weight) in
            let n = Array.length arr in
            let apply fa picks cost =
              if area + cost <= limit then begin
                let chosen = Array.map (fun i -> arr.(i)) picks in
                let lvl =
                  1
                  + Array.fold_left
                      (fun acc ((s : signal), _) -> max acc s.level)
                      0 chosen
                in
                let tt i = (fst chosen.(i)).tt in
                let sum_tt, carry_tt =
                  if fa then
                    (Tt.xor3 (tt 0) (tt 1) (tt 2), Tt.maj3 (tt 0) (tt 1) (tt 2))
                  else (Tt.logxor (tt 0) (tt 1), Tt.logand (tt 0) (tt 1))
                in
                let sum =
                  ({ tt = sum_tt; level = lvl }, Out { block = nblocks; port = 0 })
                in
                let carry =
                  ( { tt = carry_tt; level = lvl },
                    Out { block = nblocks; port = 1 } )
                in
                let in_picks idx = Array.exists (fun i -> i = idx) picks in
                let kept =
                  List.filteri (fun idx _ -> not (in_picks idx)) st.(weight)
                in
                let st' = Array.copy st in
                st'.(weight) <- List.stable_sort compare_entry (sum :: kept);
                st'.(weight + 1) <-
                  List.stable_sort compare_entry (carry :: st.(weight + 1));
                dfs st' (area + cost) limit (nblocks + 1)
                  ({ fa; args = Array.map snd chosen } :: blocks_rev)
              end
            in
            for i = 0 to n - 3 do
              for j = i + 1 to n - 2 do
                for k = j + 1 to n - 1 do
                  apply true [| i; j; k |] fa_cost
                done
              done
            done;
            for i = 0 to n - 2 do
              for j = i + 1 to n - 1 do
                apply false [| i; j |] ha_cost
              done
            done
          done
        end
      end
    end
  in
  let rec deepen limit =
    if limit > 4 * m then
      Dp_diag.Diag.fail
        (Dp_diag.Diag.errorf ~code:"DP-CTR002" ~subsystem:"counters"
           "exact synthesis of %s found no body within area %d"
           (Cell_kind.name kind) limit)
    else begin
      Hashtbl.reset memo;
      best := None;
      dfs init 0 limit 0 [];
      match !best with
      | Some { blocks_rev; outs; _ } ->
        { kind; blocks = Array.of_list (List.rev blocks_rev); outputs = outs }
      | None -> deepen (limit + 1)
    end
  in
  deepen (lower_bound (potential (counts init)) goal_p)

let area_units r = (2 * fa_count r) + ha_count r

let depth r =
  let nb = Array.length r.blocks in
  let lvl = Array.make (max nb 1) 0 in
  let ref_level = function
    | Pin _ -> 0
    | Out { block; port = _ } -> lvl.(block)
  in
  Array.iteri
    (fun i b ->
      lvl.(i) <- 1 + Array.fold_left (fun acc a -> max acc (ref_level a)) 0 b.args)
    r.blocks;
  Array.fold_left (fun acc o -> max acc (ref_level o)) 0 r.outputs
