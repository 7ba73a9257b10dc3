open Dp_netlist
open Dp_bitmatrix

type column_reducer =
  Netlist.t -> Netlist.net list -> Netlist.net list * Netlist.net list

let sweep_counters netlist matrix ~reducer =
  (* Condition 1 of the paper (Sec. 3.2): reduce the rightmost column first,
     inserting its carry-outs into the next columns before those are
     processed, until every column holds at most two addends.  An m:3
     counter's top digit lands two columns left, after the weight-(j+1)
     carries.  The matrix width can grow as carries spill leftwards (or
     stay capped when the matrix is modular: [Matrix.add] drops addends
     at weights >= W). *)
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
        invalid_arg "Reduce.sweep: reducer left more than two addends"
      | [] | [ _ ] | [ _; _ ] -> ());
      Matrix.set_column matrix !j kept;
      List.iter (fun net -> Matrix.add matrix ~weight:(!j + 1) net) ones;
      List.iter (fun net -> Matrix.add matrix ~weight:(!j + 2) net) twos
    | [] | [ _ ] | [ _; _ ] -> ());
    incr j
  done;
  assert (Matrix.is_reduced matrix)

let sweep netlist matrix ~reducer =
  sweep_counters netlist matrix ~reducer:(fun netlist col ->
      let kept, carries = reducer netlist col in
      kept, carries, [])
