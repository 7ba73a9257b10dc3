open Dp_netlist
open Dp_bitmatrix

(* Generalized parallel-counter (GPC) allocation.  The FA/HA strategies
   of the paper combine at most three addends per step; the counter-aware
   variants below extend the same greedy column discipline to the
   certified m:k cells of [Dp_counters] — 7:3, 6:3 and 5:3 counters for
   the sweep-style strategies, the 4:2 compressor for the staged
   Dadda-style tree.  Every allocation first runs the exact-synthesis
   certificate for the netlist's technology, so a miswired body or a
   drifted closed-form model stops synthesis instead of silently
   corrupting timing and power numbers. *)

(* An m:3 counter emits digits at weights j, j+1 AND j+2, so the
   generalized reducer returns two carry lists.  This sweep is
   [Reduce.sweep] with the extra weight-(j+2) insertion; [Matrix.add]
   keeps the modular-width discipline (addends at weights >= W vanish). *)
type reducer =
  Netlist.t ->
  Netlist.net list ->
  Netlist.net list * Netlist.net list * Netlist.net list

let sweep netlist matrix ~reducer =
  let gov = Netlist.gov netlist in
  let j = ref 0 in
  while !j < Matrix.width matrix do
    (match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Reduce g
    | None -> ());
    (match Matrix.column matrix !j with
    | _ :: _ :: _ :: _ as col ->
      let kept, ones, twos = reducer netlist col in
      (match kept with
      | _ :: _ :: _ :: _ ->
        invalid_arg "Gpc.sweep: reducer left more than two addends"
      | [] | [ _ ] | [ _; _ ] -> ());
      Matrix.set_column matrix !j kept;
      List.iter (fun net -> Matrix.add matrix ~weight:(!j + 1) net) ones;
      List.iter (fun net -> Matrix.add matrix ~weight:(!j + 2) net) twos
    | [] | [ _ ] | [ _; _ ] -> ());
    incr j
  done;
  assert (Matrix.is_reduced matrix)

(* Split-and-fill column rule (the JoRGS planning baseline), in two
   phases.

   Phase 1 — split: counters pack the column's {e cohort}, the extremal
   prefix of the sorted pool admitted by the strategy's cohort predicate.
   While five or more cohort members remain, the largest fitting counter
   (7:3 above six, then 6:3, then 5:3) consumes the first m of them; its
   weight-j sum is set aside for phase 2 rather than fed back, so
   counters never stack on each other's outputs within a column.  The
   sort order is the strategy's comparator, so for SC_T the earliest
   arrivals land on the slow low-index pins and the latest cohort member
   on the fast high-index pin (pin-aware [Tech.pin_delay] makes that
   placement pay off).

   Phase 2 — fill: the leftovers plus the counter sums go through the
   ordinary FA/HA greedy (FA on the three extremal while four or more
   remain, HA on the two extremal at exactly three), leaving at most two.

   The cohort predicate is what keeps the timing strategy honest: a
   carry trickling in from a previously reduced column arrives at least
   one FA delay after the column's native addends, so it fails the
   cohort test and rides a plain FA — the cheap carry path — instead of
   being swallowed by a counter whose exported carries would cascade the
   lateness across every remaining column. *)
let apply_counter netlist m pins =
  match m with
  | 7 -> Netlist.c73 netlist pins
  | 6 -> Netlist.c63 netlist pins
  | _ -> Netlist.c53 netlist pins

let reduce_column (k1, k2) ~cohort netlist addends =
  let gov = Netlist.gov netlist in
  let poll () =
    match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Reduce g
    | None -> ()
  in
  let sorted = Net_queue.drain (Net_queue.of_list ~k1 ~k2 netlist addends) in
  (* Constants never enter a counter: the builders would degrade the cell
     around them (wasting pins), and a const's 0.0 arrival would anchor
     the SC_T cohort window below every real signal.  They ride the FA/HA
     fill, whose builders fold them away. *)
  let eligible, consts =
    List.partition (fun x -> Netlist.const_value netlist x = None) sorted
  in
  let in_cohort =
    match eligible with [] -> fun _ -> false | x0 :: _ -> cohort x0
  in
  let rec take k acc pool =
    if k = 0 then List.rev acc, pool
    else
      match pool with
      | x :: rest -> take (k - 1) (x :: acc) rest
      | [] -> invalid_arg "Gpc.reduce_column: pool underflow"
  in
  let rec split pool e fills ones twos =
    poll ();
    if e >= 5 then begin
      let m = min e 7 in
      let pins, rest = take m [] pool in
      let s0, s1, s2 = apply_counter netlist m (Array.of_list pins) in
      split rest (e - m) (s0 :: fills) (s1 :: ones) (s2 :: twos)
    end
    else pool, fills, ones, twos
  in
  let cohort_size =
    (* the pool order puts cohort members first for both strategy
       orders, so the cohort is a prefix of [eligible] *)
    List.length (List.filter in_cohort eligible)
  in
  let leftovers, fills, ones, twos = split eligible cohort_size [] [] [] in
  (* The fill pool is sorted afresh: the counter sums arrive out of
     order, and pushed one at a time they would each shift the FIFO. *)
  let pool =
    Net_queue.of_list ~k1 ~k2 netlist
      (List.rev_append consts (List.rev_append fills leftovers))
  in
  (* [ones]/[twos] stay accumulated in reverse until the single final
     List.rev, so carries come out in allocation order. *)
  let rec fill ones =
    poll ();
    let n = Net_queue.length pool in
    if n >= 4 then begin
      let x = Net_queue.pop pool in
      let y = Net_queue.pop pool in
      let z = Net_queue.pop pool in
      let sum, carry = Netlist.fa netlist x y z in
      Net_queue.push pool sum;
      fill (carry :: ones)
    end
    else if n = 3 then begin
      let x = Net_queue.pop pool in
      let y = Net_queue.pop pool in
      let sum, carry = Netlist.ha netlist x y in
      [ sum; Net_queue.pop pool ], List.rev (carry :: ones), List.rev twos
    end
    else Net_queue.drain pool, List.rev ones, List.rev twos
  in
  fill ones

(* SC_T's cohort: everything within one FA sum delay of the column's
   earliest signal — the near-simultaneous bulk (native partial
   products), never the carries rippling in from columns already
   reduced. *)
let arrival_cohort netlist x0 =
  let window =
    Dp_tech.Tech.delay (Netlist.tech netlist) Dp_tech.Cell_kind.Fa ~port:0
  in
  let cut = Netlist.arrival netlist x0 +. window in
  fun x -> Netlist.arrival netlist x <= cut

let reduce_column_t ?(tie_break = Sc_t.Arrival_only) netlist addends =
  reduce_column (Sc_t.queue_keys tie_break) ~cohort:(arrival_cohort netlist)
    netlist addends

(* SC_LP packs counters regardless of arrival: the power objective wants
   the maximum number of addends absorbed by the cheapest structure, and
   the |q| order feeds the strongest (least active) signals first. *)
let any_cohort _ _ = true

let reduce_column_lp ?(tie_break = Sc_lp.Q_only) netlist addends =
  reduce_column (Sc_lp.queue_keys tie_break) ~cohort:any_cohort netlist addends

let certify netlist = Dp_counters.Certify.ensure (Netlist.tech netlist)

let allocate_t ?tie_break netlist matrix =
  certify netlist;
  sweep netlist matrix ~reducer:(fun netlist col ->
      reduce_column_t ?tie_break netlist col)

let allocate_lp ?tie_break netlist matrix =
  certify netlist;
  sweep netlist matrix ~reducer:(fun netlist col ->
      reduce_column_lp ?tie_break netlist col)

(* Dadda-style 4:2 tree.  Each stage halves the matrix height (target
   ceil(h/2), floored at two); within a column, the excess over the
   target is removed four rows at a time by 4:2 compressors in fixed
   (listed) order — the fifth pool slot is the compressor's cin, so a
   carry-out arriving from the column to the right chains into it
   ripple-free (the certified body's cout is independent of cin) — then
   by an FA for a residual excess of two and an HA for one.  Carries and
   carry-outs both land one column left {e within the same stage},
   Dadda's accounting, as in [Dadda.allocate].  The pool is a FIFO, as
   in [Dadda.shrink]: each new sum joins its back. *)
let compress netlist ~target pool =
  let queue = Queue.create () in
  List.iter (fun x -> Queue.add x queue) pool;
  let rec go n carries =
    (* [target >= 2], so a step never runs short of addends *)
    if n <= target then List.of_seq (Queue.to_seq queue), List.rev carries
    else if n - target >= 3 then begin
      let x0 = Queue.pop queue in
      let x1 = Queue.pop queue in
      let x2 = Queue.pop queue in
      let x3 = Queue.pop queue in
      let cin = Queue.pop queue in
      let s, c, co = Netlist.c42 netlist [| x0; x1; x2; x3; cin |] in
      Queue.add s queue;
      go (n - 4) (co :: c :: carries)
    end
    else if n > target + 1 then begin
      let x = Queue.pop queue in
      let y = Queue.pop queue in
      let z = Queue.pop queue in
      let sum, carry = Netlist.fa netlist x y z in
      Queue.add sum queue;
      go (n - 2) (carry :: carries)
    end
    else begin
      let x = Queue.pop queue in
      let y = Queue.pop queue in
      let sum, carry = Netlist.ha netlist x y in
      Queue.add sum queue;
      go (n - 1) (carry :: carries)
    end
  in
  go (Queue.length queue) []

let allocate_dadda netlist matrix =
  certify netlist;
  let gov = Netlist.gov netlist in
  let in_range j =
    match Matrix.max_width matrix with Some w -> j < w | None -> true
  in
  let rec stages () =
    let height = Matrix.height matrix in
    if height > 2 then begin
      let target = max 2 ((height + 1) / 2) in
      let carries_in = ref [] in
      let j = ref 0 in
      while !j < Matrix.width matrix || !carries_in <> [] do
        (match gov with
        | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Reduce g
        | None -> ());
        if in_range !j then begin
          let col = Matrix.column matrix !j @ !carries_in in
          let kept, carries_out = compress netlist ~target col in
          Matrix.set_column matrix !j kept;
          carries_in := carries_out
        end
        else
          (* modular matrix: addends at weights >= W vanish *)
          carries_in := [];
        incr j
      done;
      stages ()
    end
  in
  stages ();
  assert (Matrix.is_reduced matrix)
