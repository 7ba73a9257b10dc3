(* The map-based bit-level lowering, kept verbatim as the oracle for
   [Dp_bitmatrix.Lower.lower] (see [Test_lower]): the same expansion
   through [Env.find]/[List.assoc] per bit and a [Map] over sorted net
   lists.  Its support order is the order the fast path must reproduce.
   Not used outside the tests. *)

open Dp_netlist
open Dp_expr
open Dp_bitmatrix
open Lower

module Support_map = Map.Make (struct
  type t = Netlist.net list

  let compare = Stdlib.compare
end)

(* Lowering strategy (DESIGN.md Sec. 5): normalize to sum-of-products, then
   expand every monomial into bit-level partial products.  A tuple choosing
   bit i_k from each factor contributes coeff * 2^(Σ i_k) times the AND of
   the chosen bits.  Tuples are accumulated per *support* (the deduplicated
   literal set), so x_i*x_i collapses to x_i and the symmetric pair
   x_i*x_j + x_j*x_i becomes a single addend one column to the left — the
   classic squarer folding, obtained here for free and globally across
   monomials.  Each support's accumulated integer multiplier is then recoded
   (CSD by default) into few signed power-of-two digits; negative digits
   lower as complemented addends with a constant correction, and every
   constant is pre-summed into a single K whose bits enter the matrix. *)
let lower ?(config = default_config) netlist env expr ~width =
  if width < 1 || width > 62 then invalid_arg "Lower.lower: width out of [1,62]";
  Env.check_covers expr env;
  let inputs = declare_inputs netlist env expr in
  let bit v i = (List.assoc v inputs).(i) in
  (* Checkpoint of the expansion itself: distributing products over sums
     and the tuple enumeration below can each visit exponentially many
     terms before the first cell exists, so cell-level polling alone
     would come too late. *)
  let gov = Netlist.gov netlist in
  let checkpoint () =
    match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Lower g
    | None -> ()
  in
  let sop = Sop.of_expr ~checkpoint expr in
  let table = ref Support_map.empty in
  let add_support supp m =
    checkpoint ();
    if m <> 0 then
      table :=
        Support_map.update supp
          (fun prev ->
            let v = Option.value prev ~default:0 + m in
            if v = 0 then None else Some v)
          !table
  in
  let expand_monomial mono coeff =
    (* [sign] tracks the product of per-bit signs: the MSB of a signed
       (two's-complement) factor carries weight -2^(w-1), which makes the
       Baugh-Wooley signed partial products fall out of the same
       signed-digit machinery as subtraction. *)
    let rec enum factors sign supp weight =
      if weight < width then
        match factors with
        | [] ->
          add_support (List.sort_uniq Int.compare supp)
            (sign * coeff * (1 lsl weight))
        | v :: rest ->
          let info = Env.find v env in
          for i = 0 to info.width - 1 do
            let bit_sign = if info.signed && i = info.width - 1 then -1 else 1 in
            enum rest (sign * bit_sign) (bit v i :: supp) (weight + i)
          done
    in
    enum mono 1 [] 0
  in
  let matrix = Matrix.create ~max_width:width () in
  let k = ref 0 in
  (* With the Booth style, products of two distinct unsigned variables with
     a +/-1 coefficient use radix-4 Booth rows; everything else goes
     through the AND-array support table. *)
  let booth_eligible mono coeff =
    config.multiplier_style = Booth
    && abs coeff = 1
    &&
    match mono with
    | [ u; v ] ->
      (not (String.equal u v))
      && (not (Env.find u env).signed)
      && not (Env.find v env).signed
    | [] | [ _ ] | _ :: _ :: _ -> false
  in
  List.iter
    (fun (mono, coeff) ->
      if booth_eligible mono coeff then
        match mono with
        | [ u; v ] ->
          (* recode over the wider operand: fewer digit rows *)
          let wu = Env.width u env and wv = Env.width v env in
          let multiplicand, multiplier = if wu >= wv then u, v else v, u in
          k :=
            !k
            + Booth.lower_product ~negate:(coeff < 0) netlist matrix
                ~multiplicand:(List.assoc multiplicand inputs)
                ~multiplier:(List.assoc multiplier inputs)
        | [] | [ _ ] | _ :: _ :: _ -> assert false
      else expand_monomial mono coeff)
    (Sop.terms sop);
  Support_map.iter
    (fun supp m ->
      match supp with
      | [] -> k := !k + m
      | _ ->
        let digits =
          match config.recoding with
          | Csd -> Csd.recode m
          | Binary -> Csd.binary m
        in
        List.iter
          (fun (d : Csd.digit) ->
            checkpoint ();
            if d.weight < width then
              let net = Netlist.and_n netlist supp in
              if d.sign > 0 then Matrix.add matrix ~weight:d.weight net
              else begin
                (* -b*2^w  =  ~b*2^w - 2^w *)
                Matrix.add matrix ~weight:d.weight (Netlist.not_ netlist net);
                k := !k - (1 lsl d.weight)
              end)
          digits)
    !table;
  let k_bits = !k land Eval.mask width in
  for j = 0 to width - 1 do
    if (k_bits lsr j) land 1 = 1 then
      Matrix.add matrix ~weight:j (Netlist.const netlist true)
  done;
  matrix
