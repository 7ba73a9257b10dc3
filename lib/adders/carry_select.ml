open Dp_netlist

let block_size = 4

(* The [if_false] leg is built first, which numbers its cells first. *)
let mux netlist ~sel ~if_true ~if_false =
  let low = Netlist.and2 netlist (Netlist.not_ netlist sel) if_false in
  let high = Netlist.and2 netlist sel if_true in
  Netlist.or2 netlist high low

let ripple_block netlist ~a ~b ~lo ~hi ~carry_in =
  let sums = Array.make (hi - lo) carry_in in
  let carry = ref carry_in in
  for i = lo to hi - 1 do
    let s, c = Netlist.fa netlist a.(i) b.(i) !carry in
    sums.(i - lo) <- s;
    carry := c
  done;
  sums, !carry

let build ?cin netlist ~a ~b =
  let width = Array.length a in
  if Array.length b <> width then invalid_arg "Carry_select.build: width mismatch";
  let sums = Array.make width (Netlist.const netlist false) in
  let carry_in =
    ref (match cin with None -> Netlist.const netlist false | Some c -> c)
  in
  let block_start = ref 0 in
  while !block_start < width do
    let lo = !block_start in
    let hi = min (lo + block_size) width in
    if lo = 0 then begin
      (* the first block cannot overlap carry computation: plain ripple *)
      let s, c = ripple_block netlist ~a ~b ~lo ~hi ~carry_in:!carry_in in
      Array.blit s 0 sums lo (hi - lo);
      carry_in := c
    end
    else begin
      (* speculative chains for both carry-in values, then select *)
      let s0, c0 =
        ripple_block netlist ~a ~b ~lo ~hi ~carry_in:(Netlist.const netlist false)
      in
      let s1, c1 =
        ripple_block netlist ~a ~b ~lo ~hi ~carry_in:(Netlist.const netlist true)
      in
      for i = 0 to hi - lo - 1 do
        sums.(lo + i) <- mux netlist ~sel:!carry_in ~if_true:s1.(i) ~if_false:s0.(i)
      done;
      carry_in := mux netlist ~sel:!carry_in ~if_true:c1 ~if_false:c0
    end;
    block_start := hi
  done;
  sums
