open Dp_netlist

let build ?cin netlist ~a ~b =
  let width = Array.length a in
  if Array.length b <> width then invalid_arg "Kogge_stone.build: width mismatch";
  let cin = match cin with None -> Netlist.const netlist false | Some c -> c in
  let p0 = Array.init width (fun i -> Netlist.xor2 netlist a.(i) b.(i)) in
  let g = Array.init width (fun i -> Netlist.and2 netlist a.(i) b.(i)) in
  let p = Array.copy p0 in
  (* prefix combine: after the pass for distance d, g.(i) is the generate of
     the window [i-2d+1 .. i] (clamped at 0) *)
  let distance = ref 1 in
  while !distance < width do
    let g' = Array.copy g and p' = Array.copy p in
    for i = !distance to width - 1 do
      let j = i - !distance in
      g'.(i) <- Netlist.or2 netlist g.(i) (Netlist.and2 netlist p.(i) g.(j));
      p'.(i) <- Netlist.and2 netlist p.(i) p.(j)
    done;
    Array.blit g' 0 g 0 width;
    Array.blit p' 0 p 0 width;
    distance := !distance * 2
  done;
  (* carry into bit i: c_i = G[0..i-1] | (P[0..i-1] & cin); constant folding
     removes the cin terms when there is no carry-in *)
  Array.init width (fun i ->
      if i = 0 then Netlist.xor2 netlist p0.(0) cin
      else
        let carry =
          Netlist.or2 netlist g.(i - 1) (Netlist.and2 netlist p.(i - 1) cin)
        in
        Netlist.xor2 netlist p0.(i) carry)
