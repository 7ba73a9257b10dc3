open Dp_netlist

let group_size = 4

let build ?cin netlist ~a ~b =
  let width = Array.length a in
  if Array.length b <> width then invalid_arg "Cla.build: width mismatch";
  let generate = Array.init width (fun i -> Netlist.and2 netlist a.(i) b.(i)) in
  let propagate = Array.init width (fun i -> Netlist.xor2 netlist a.(i) b.(i)) in
  let sums = Array.make width (Netlist.const netlist false) in
  let carry_in =
    ref (match cin with None -> Netlist.const netlist false | Some c -> c)
  in
  let block_start = ref 0 in
  while !block_start < width do
    let hi = min (!block_start + group_size) width in
    (* carries within the group, fully looked-ahead from the group carry-in:
       c_{k+1} = g_k | p_k g_{k-1} | ... | p_k ... p_0 c_in *)
    let carry = Array.make (hi - !block_start + 1) !carry_in in
    for k = !block_start to hi - 1 do
      let local = k - !block_start in
      let terms = ref [] in
      for j = !block_start to k do
        (* g_j AND (p_{j+1} ... p_k) *)
        let ps = List.init (k - j) (fun d -> propagate.(j + 1 + d)) in
        terms := Netlist.and_n netlist (generate.(j) :: ps) :: !terms
      done;
      let all_p = List.init (k - !block_start + 1) (fun d -> propagate.(!block_start + d)) in
      terms := Netlist.and_n netlist (!carry_in :: all_p) :: !terms;
      carry.(local + 1) <- Netlist.or_n netlist !terms
    done;
    for k = !block_start to hi - 1 do
      sums.(k) <- Netlist.xor2 netlist propagate.(k) carry.(k - !block_start)
    done;
    carry_in := carry.(hi - !block_start);
    block_start := hi
  done;
  sums
