(* The sort-per-step column reducers, kept verbatim as the oracles for
   the queue-based [Dp_core.Sc_t], [Dp_core.Sc_lp] and [Dp_core.Gpc]
   reducers (see [Test_perf] and [Test_counters]): every step re-sorts
   the whole pool with the strategy's [compare_nets], so the nets they
   pick are the sequence the [Dp_core.Net_queue] must pop.  Beside them,
   the counter strategies' own column sweep and 4:2 stage loop, and
   Dadda's stage loop, as they were before all of them ran the shared
   [Dp_core.Reduce] and [Dp_core.Dadda] drivers; [Test_perf] diffs whole
   netlists against them.  Not used outside the tests. *)

open Dp_netlist
open Dp_bitmatrix

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

  let reduce_column_t netlist addends =
    reduce_column
      ~cmp:(Dp_core.Sc_t.compare_nets netlist Dp_core.Sc_t.Arrival_only)
      ~cohort:(arrival_cohort netlist) netlist addends

  let any_cohort _ _ = true

  let reduce_column_lp netlist addends =
    reduce_column
      ~cmp:(Dp_core.Sc_lp.compare_nets netlist Dp_core.Sc_lp.Q_only)
      ~cohort:any_cohort netlist addends

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

  let certify netlist = Dp_counters.Certify.ensure (Netlist.tech netlist)

  let allocate_t netlist matrix =
    certify netlist;
    sweep netlist matrix ~reducer:reduce_column_t

  let allocate_lp netlist matrix =
    certify netlist;
    sweep netlist matrix ~reducer:reduce_column_lp

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
end

module Dadda = struct
  let next_target height =
    let rec go d = if d * 3 / 2 >= height then d else go (d * 3 / 2) in
    if height <= 2 then 2 else go 2

  let shrink netlist ~target pool =
    let queue = Queue.create () in
    List.iter (fun x -> Queue.add x queue) pool;
    let rec go n carries =
      (* [target >= 2], so a step never runs short of addends *)
      if n <= target then List.of_seq (Queue.to_seq queue), List.rev carries
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

  let allocate netlist matrix =
    let in_range j =
      match Matrix.max_width matrix with Some w -> j < w | None -> true
    in
    let rec stages () =
      let height = Matrix.height matrix in
      if height > 2 then begin
        let target = next_target height in
        let carries_in = ref [] in
        let j = ref 0 in
        while !j < Matrix.width matrix || !carries_in <> [] do
          if in_range !j then begin
            let col = Matrix.column matrix !j @ !carries_in in
            let kept, carries_out = shrink netlist ~target col in
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
end
