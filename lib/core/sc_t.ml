open Dp_netlist

type tie_break = Arrival_only | Prefer_high_q

type three_policy = Ha_finish | Fa_finish

(* Earliest arrival first; among ties, the paper's combined rule optionally
   prefers the largest |q| (Sec. 4.3, last paragraph); net id last for
   determinism. *)
let compare_nets netlist tie_break x y =
  let by_arrival = Float.compare (Netlist.arrival netlist x) (Netlist.arrival netlist y) in
  if by_arrival <> 0 then by_arrival
  else
    let by_q =
      match tie_break with
      | Arrival_only -> 0
      | Prefer_high_q ->
        Float.compare
          (Float.abs (Netlist.q netlist y))
          (Float.abs (Netlist.q netlist x))
    in
    if by_q <> 0 then by_q else Int.compare x y

(* The same order as [Net_queue] keys: k1 = arrival, k2 = 0 under
   [Arrival_only] or descending |q| under [Prefer_high_q], net id
   last. *)
let queue_keys = function
  | Arrival_only -> (Net_queue.Arrival, Net_queue.Zero)
  | Prefer_high_q -> (Net_queue.Arrival, Net_queue.Neg_abs_q)

(* When exactly three addends remain, the paper's footnote 1 allocates an
   HA on the two earliest so the column keeps exactly two addends.  One
   could instead spend an FA on all three (the convention of Fig. 1 and of
   word-level CSA trees), keeping one addend and pushing one carry left;
   that choice is locally dominated — both its kept-signal and its carry
   are never earlier than the HA's — which the finish-policy ablation
   makes visible. *)
let finish_three policy netlist x y z carries =
  match policy with
  | Fa_finish ->
    let sum, carry = Netlist.fa netlist x y z in
    [ sum ], List.rev (carry :: carries)
  | Ha_finish ->
    let sum, carry = Netlist.ha netlist x y in
    [ sum; z ], List.rev (carry :: carries)

(* Algorithm SC_T (Sec. 3.3): while more than two addends remain, combine
   the three earliest with an FA (the sum stays in the column, the carry
   leaves); when exactly three remain, finish per [three_policy].

   The greedy selection is Huffman-like: each step only ever needs the
   three minima of the pool, and each new sum arrives no earlier than
   the one before it, so the column is sorted once and the sums queue
   behind it ([Net_queue]).  The order is total (net id last), so the
   pop sequence equals the sorted order of [compare_nets]; the test
   suite diffs whole netlists against the sort-per-step reducer to
   check it.  The loop takes the minima under whatever keys [pool] was
   built with, so GPC's fill phase runs it on SC_LP's order too, after
   its counters' carries ([carries], latest first). *)
let reduce_pool ?(three_policy = Ha_finish) netlist pool carries =
  let gov = Netlist.gov netlist in
  let rec go carries =
    (match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Reduce g
    | None -> ());
    if Net_queue.length pool > 3 then begin
      let x = Net_queue.pop pool in
      let y = Net_queue.pop pool in
      let z = Net_queue.pop pool in
      let sum, carry = Netlist.fa netlist x y z in
      Net_queue.push pool sum;
      go (carry :: carries)
    end
    else if Net_queue.length pool = 3 then begin
      let x = Net_queue.pop pool in
      let y = Net_queue.pop pool in
      let z = Net_queue.pop pool in
      finish_three three_policy netlist x y z carries
    end
    else Net_queue.drain pool, List.rev carries
  in
  go carries

let reduce_column ?(tie_break = Arrival_only) ?three_policy netlist addends =
  let k1, k2 = queue_keys tie_break in
  reduce_pool ?three_policy netlist
    (Net_queue.of_list ~k1 ~k2 netlist addends)
    []
