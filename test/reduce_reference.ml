(* The sort-per-step column reducers, kept verbatim as the oracles for
   the queue-based [Dp_core.Sc_t], [Dp_core.Sc_lp] and [Dp_core.Gpc]
   reducers (see [Test_perf] and [Test_counters]): every step re-sorts
   the whole pool with the strategy's [compare_nets], so the nets they
   pick are the sequence the [Dp_core.Net_queue] must pop.  Not used
   outside the tests. *)

open Dp_netlist

module Sc_t = struct
  open Dp_core.Sc_t

  let finish_three policy netlist x y z carries =
    match policy with
    | Fa_finish ->
      let sum, carry = Netlist.fa netlist x y z in
      [ sum ], List.rev (carry :: carries)
    | Ha_finish ->
      let sum, carry = Netlist.ha netlist x y in
      [ sum; z ], List.rev (carry :: carries)

  let reduce_column ?(tie_break = Arrival_only) ?(three_policy = Ha_finish)
      netlist addends =
    let sort = List.sort (compare_nets netlist tie_break) in
    let rec go pool carries =
      match sort pool with
      | x :: y :: z :: (_ :: _ as rest) ->
        let sum, carry = Netlist.fa netlist x y z in
        go (sum :: rest) (carry :: carries)
      | [ x; y; z ] -> finish_three three_policy netlist x y z carries
      | ([] | [ _ ] | [ _; _ ]) as rest -> rest, List.rev carries
    in
    go addends []
end

module Sc_lp = struct
  open Dp_core.Sc_lp

  let reduce_column ?(tie_break = Q_only) netlist addends =
    if List.length addends <= 2 then addends, []
    else begin
      let pool =
        if List.length addends mod 2 = 1 then
          Netlist.const netlist false :: addends
        else addends
      in
      let sort = List.sort (compare_nets netlist tie_break) in
      let rec go pool carries =
        if List.length pool <= 2 then pool, List.rev carries
        else
          match sort pool with
          | x :: y :: z :: rest ->
            let sum, carry = Netlist.fa netlist x y z in
            go (sum :: rest) (carry :: carries)
          | [] | [ _ ] | [ _; _ ] -> assert false
      in
      go pool []
    end
end

(* The split phase is the same walk of the sorted pool as in
   [Dp_core.Gpc]; the fill phase re-sorts every step. *)
module Gpc = struct
  let apply_counter netlist m pins =
    match m with
    | 7 -> Netlist.c73 netlist pins
    | 6 -> Netlist.c63 netlist pins
    | _ -> Netlist.c53 netlist pins

  let reduce_column ~cmp ~cohort netlist addends =
    let sorted = List.sort cmp addends in
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
        | [] -> invalid_arg "Gpc.reduce_column_reference: pool underflow"
    in
    let rec split pool e fills ones twos =
      if e >= 5 then begin
        let m = min e 7 in
        let pins, rest = take m [] pool in
        let s0, s1, s2 = apply_counter netlist m (Array.of_list pins) in
        split rest (e - m) (s0 :: fills) (s1 :: ones) (s2 :: twos)
      end
      else pool, fills, ones, twos
    in
    let cohort_size = List.length (List.filter in_cohort eligible) in
    let leftovers, fills, ones, twos = split eligible cohort_size [] [] [] in
    let sort = List.sort cmp in
    let rec fill pool ones =
      let pool = sort pool in
      match pool with
      | x :: y :: z :: (_ :: _ as rest) ->
        let sum, carry = Netlist.fa netlist x y z in
        fill (sum :: rest) (carry :: ones)
      | [ x; y; z ] ->
        let sum, carry = Netlist.ha netlist x y in
        [ sum; z ], List.rev (carry :: ones), List.rev twos
      | [] | [ _ ] | [ _; _ ] -> pool, List.rev ones, List.rev twos
    in
    fill (consts @ leftovers @ fills) ones

  let arrival_cohort netlist x0 =
    let window =
      Dp_tech.Tech.delay (Netlist.tech netlist) Dp_tech.Cell_kind.Fa ~port:0
    in
    let cut = Netlist.arrival netlist x0 +. window in
    fun x -> Netlist.arrival netlist x <= cut

  let reduce_column_t ?(tie_break = Dp_core.Sc_t.Arrival_only) netlist addends
      =
    reduce_column
      ~cmp:(Dp_core.Sc_t.compare_nets netlist tie_break)
      ~cohort:(arrival_cohort netlist) netlist addends

  let any_cohort _ _ = true

  let reduce_column_lp ?(tie_break = Dp_core.Sc_lp.Q_only) netlist addends =
    reduce_column
      ~cmp:(Dp_core.Sc_lp.compare_nets netlist tie_break)
      ~cohort:any_cohort netlist addends
end
