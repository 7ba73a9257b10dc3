open Dp_netlist

(* Generalized parallel-counter (GPC) allocation.  The FA/HA strategies
   of the paper combine at most three addends per step; the counter-aware
   variants below extend the same greedy column discipline to the
   certified m:k cells of [Dp_counters] — 7:3, 6:3 and 5:3 counters for
   the sweep-style strategies, the 4:2 compressor for the staged
   Dadda-style tree.  They run the shared drivers: [Reduce]'s sweep,
   SC_T's FA/HA loop and Dadda's stages.  Every allocation first runs the
   exact-synthesis certificate for the netlist's technology, so a
   miswired body or a drifted closed-form model stops synthesis instead
   of silently corrupting timing and power numbers. *)

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

   Phase 2 — fill: the leftovers plus the counter sums go through SC_T's
   loop ([Sc_t.reduce_pool]) under the strategy's order (FA on the three
   extremal while four or more remain, HA on the two extremal at exactly
   three), leaving at most two.

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
  let kept, ones = Sc_t.reduce_pool netlist pool ones in
  kept, ones, List.rev twos

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

let reduce_column_t netlist addends =
  reduce_column
    (Sc_t.queue_keys Sc_t.Arrival_only)
    ~cohort:(arrival_cohort netlist) netlist addends

(* SC_LP packs counters regardless of arrival: the power objective wants
   the maximum number of addends absorbed by the cheapest structure, and
   the |q| order feeds the strongest (least active) signals first. *)
let any_cohort _ _ = true

let reduce_column_lp netlist addends =
  reduce_column (Sc_lp.queue_keys Sc_lp.Q_only) ~cohort:any_cohort netlist
    addends

let certify netlist = Dp_counters.Certify.ensure (Netlist.tech netlist)

let allocate_t netlist matrix =
  certify netlist;
  Reduce.sweep_counters netlist matrix ~reducer:reduce_column_t

let allocate_lp netlist matrix =
  certify netlist;
  Reduce.sweep_counters netlist matrix ~reducer:reduce_column_lp

(* Dadda-style 4:2 tree: each stage halves the matrix height (target
   ceil(h/2), floored at two), and 4:2 compressors take the excess four
   rows at a time before Dadda's FA/HA rule. *)
let allocate_dadda netlist matrix =
  certify netlist;
  Dadda.staged netlist matrix ~target:(fun h -> max 2 ((h + 1) / 2)) ~c42:true
