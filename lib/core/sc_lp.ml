open Dp_netlist

type tie_break = Q_only | Prefer_early

(* Largest |q| first (statement a of SC_LP); ties optionally prefer the
   earliest arrival (the reverse of FA_AOT's combined rule); net id last
   for determinism. *)
let compare_nets netlist tie_break x y =
  let by_q =
    Float.compare
      (Float.abs (Netlist.q netlist y))
      (Float.abs (Netlist.q netlist x))
  in
  if by_q <> 0 then by_q
  else
    let by_arrival =
      match tie_break with
      | Q_only -> 0
      | Prefer_early ->
        Float.compare (Netlist.arrival netlist x) (Netlist.arrival netlist y)
    in
    if by_arrival <> 0 then by_arrival else Int.compare x y

(* The same order as [Net_queue] keys: k1 = descending |q|, k2 = 0
   under [Q_only] or arrival under [Prefer_early], net id last. *)
let queue_keys = function
  | Q_only -> (Net_queue.Neg_abs_q, Net_queue.Zero)
  | Prefer_early -> (Net_queue.Neg_abs_q, Net_queue.Arrival)

(* Algorithm SC_LP (Sec. 4.3): if the column population is odd, a
   pseudo-addend of constant 0 joins the pool to model the HA (|q| of the
   constant is the maximal 0.5, so the HA is allocated in the first
   iteration); then every step feeds the three largest-|q| addends to a
   new FA.  The builder degrades an FA with a constant input to an HA.
   The pool size stays even, so it lands on exactly two.

   Like SC_T, each step only needs the three extrema of the pool, and
   each new sum's |q| is at most the one before it, so the column is
   sorted once by descending |q| and the sums queue behind it
   ([Net_queue]).  The order is total (net id last), so the result is
   decision-identical to a sort-per-step reducer under [compare_nets] —
   including the kept-pair order, [last sum; leftover] rather than
   re-sorted. *)
let reduce_column ?(tie_break = Q_only) netlist addends =
  match addends with
  | [] | [ _ ] | [ _; _ ] -> addends, []
  | _ :: _ :: _ :: _ ->
    let even_pool =
      if List.length addends mod 2 = 1 then
        Netlist.const netlist false :: addends
      else addends
    in
    let k1, k2 = queue_keys tie_break in
    let pool = Net_queue.of_list ~k1 ~k2 netlist even_pool in
    let gov = Netlist.gov netlist in
    (* The pool size is even and >= 4, and each step removes two, so the
       step that leaves one pool element is always reached. *)
    let rec go carries =
      (match gov with
      | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Reduce g
      | None -> ());
      let x = Net_queue.pop pool in
      let y = Net_queue.pop pool in
      let z = Net_queue.pop pool in
      let sum, carry = Netlist.fa netlist x y z in
      let carries = carry :: carries in
      if Net_queue.length pool = 1 then
        [ sum; Net_queue.pop pool ], List.rev carries
      else begin
        Net_queue.push pool sum;
        go carries
      end
    in
    go []
