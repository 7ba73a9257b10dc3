open Dp_netlist
open Dp_bitmatrix

(* Dadda's sequence d_1 = 2, d_{k+1} = floor(1.5 d_k): the target heights
   2, 3, 4, 6, 9, 13, 19, 28, ...  [next_target h] is the largest member
   strictly below h (the next stage's goal), except 2 for h <= 2. *)
let next_target height =
  let rec go d = if d * 3 / 2 >= height then d else go (d * 3 / 2) in
  if height <= 2 then 2 else go 2

(* Reduce one pool to [target] members in fixed (listed) order.  With
   [c42], a 4:2 compressor removes four rows while the excess is three or
   more: its fifth pin is its cin, so a carry-out arriving from the column
   to the right chains into it ripple-free (the certified body's cout is
   independent of cin).  Then the classic minimal rule: an HA when
   exactly one above target, an FA otherwise.  The pool is a FIFO (each
   new sum joins its back, so a step never copies the pool), and its
   length is threaded through the loop instead of being recounted every
   step. *)
let shrink netlist ~c42 ~target pool =
  let queue = Queue.create () in
  List.iter (fun x -> Queue.add x queue) pool;
  let rec go n carries =
    (* [target >= 2], so a step never runs short of addends *)
    if n <= target then List.of_seq (Queue.to_seq queue), List.rev carries
    else if c42 && n - target >= 3 then begin
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

let staged ~target ~c42 netlist matrix =
  let gov = Netlist.gov netlist in
  let in_range j =
    match Matrix.max_width matrix with Some w -> j < w | None -> true
  in
  let rec stages () =
    let height = Matrix.height matrix in
    if height > 2 then begin
      let target = target height in
      (* Columns are processed rightmost first; carries produced in this
         stage count against the next column's target within the same
         stage (Dadda's accounting). *)
      let carries_in = ref [] in
      let j = ref 0 in
      while !j < Matrix.width matrix || !carries_in <> [] do
        (match gov with
        | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Reduce g
        | None -> ());
        if in_range !j then begin
          let col = Matrix.column matrix !j @ !carries_in in
          let kept, carries_out = shrink netlist ~c42 ~target col in
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

let allocate = staged ~target:next_target ~c42:false
