open Dp_netlist

(* An "input" addend in the sense of Fig. 2(b): anything not produced by an
   FA/HA — primary inputs, constants and partial-product gates qualify;
   sums and carries do not. *)
let is_original netlist net =
  let cell = Netlist.driving_cell netlist net in
  cell < 0
  ||
  match Netlist.cell_kind netlist cell with
  | Dp_tech.Cell_kind.Fa | Dp_tech.Cell_kind.Ha | Dp_tech.Cell_kind.C42
  | Dp_tech.Cell_kind.C53 | Dp_tech.Cell_kind.C63 | Dp_tech.Cell_kind.C73 ->
    false
  | Dp_tech.Cell_kind.And_n _ | Dp_tech.Cell_kind.Or_n _
  | Dp_tech.Cell_kind.Xor_n _ | Dp_tech.Cell_kind.Not | Dp_tech.Cell_kind.Buf
    ->
    true

let reduce_column netlist addends =
  (* The Fig. 2(b) strategy: FA inputs are chosen earliest-first, but only
     among "input" addends — FA/HA sums and carries are never re-selected
     while at least three input addends remain.  Once they run short the
     remaining pool is finished like SC_T (a reconstruction; the paper only
     shows the 4-addend case). *)
  let by_arrival x y =
    let c = Float.compare (Netlist.arrival netlist x) (Netlist.arrival netlist y) in
    if c <> 0 then c else Int.compare x y
  in
  let remove3 x y z pool =
    List.filter (fun n -> n <> x && n <> y && n <> z) pool
  in
  let rec go pool carries =
    if List.length pool <= 2 then pool, List.rev carries
    else
      let originals =
        List.sort by_arrival (List.filter (is_original netlist) pool)
      in
      match originals with
      | x :: y :: z :: _ ->
        let sum, carry = Netlist.fa netlist x y z in
        go (sum :: remove3 x y z pool) (carry :: carries)
      | [] | [ _ ] | [ _; _ ] -> (
        match List.sort by_arrival pool with
        | x :: y :: z :: (_ :: _ as rest) ->
          let sum, carry = Netlist.fa netlist x y z in
          go (sum :: rest) (carry :: carries)
        | [ x; y; z ] ->
          let sum, carry = Netlist.ha netlist x y in
          [ sum; z ], List.rev (carry :: carries)
        | ([] | [ _ ] | [ _; _ ]) as rest -> rest, List.rev carries)
  in
  go addends []

let allocate netlist matrix =
  Reduce.sweep netlist matrix ~reducer:reduce_column
