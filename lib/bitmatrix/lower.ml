open Dp_netlist
open Dp_expr

type recoding = Csd | Binary

let recodings = [ Csd; Binary ]
let recoding_name = function Csd -> "csd" | Binary -> "binary"

type multiplier_style = And_array | Booth

let multiplier_styles = [ And_array; Booth ]
let multiplier_name = function And_array -> "and-array" | Booth -> "booth"

type config = { recoding : recoding; multiplier_style : multiplier_style }

let default_config = { recoding = Csd; multiplier_style = And_array }

(* Declare the expression's variables as primary inputs, reusing buses that
   an earlier lowering into the same netlist already declared — this is
   what lets several outputs share one netlist (and, through the builder's
   structural hashing, their partial products). *)
let declare_inputs netlist env expr =
  let existing = Netlist.inputs netlist in
  List.map
    (fun v ->
      match List.assoc_opt v existing with
      | Some nets ->
        if Array.length nets <> Env.width v env then
          invalid_arg
            (Printf.sprintf "Lower.declare_inputs: %s redeclared at a different width" v);
        (v, nets)
      | None ->
        let info = Env.find v env in
        ( v,
          Netlist.add_input netlist v ~width:info.width ~arrival:info.arrival
            ~prob:info.prob ))
    (Ast.vars expr)

(* A support is the deduplicated, sorted set of nets one partial product
   ANDs.  A support of at most two nets packs into one int: [[a]] as
   [a lsl 32] and [[a; b]] (a < b) as [(a lsl 32) lor (b + 1)], which
   orders packed keys exactly like the lexicographic order of the net
   lists (net ids stay below 2^30).  Wider supports keep their list. *)
let pack1 a = a lsl 32
let pack2 a b = (a lsl 32) lor (b + 1)

let pack_pair a b =
  if a = b then pack1 a else if a < b then pack2 a b else pack2 b a

let unpack key =
  let a = key lsr 32 and b = key land 0xFFFF_FFFF in
  if b = 0 then [ a ] else [ a; b - 1 ]

(* The AND of a packed support, built without its list. *)
let and_packed netlist key =
  let a = key lsr 32 and b = key land 0xFFFF_FFFF in
  if b = 0 then a else Netlist.and2 netlist a (b - 1)

(* Lexicographic order of sorted net lists, the order supports are
   emitted in. *)
let rec compare_support a b =
  match a, b with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a, y :: b ->
    let c = Int.compare x y in
    if c <> 0 then c else compare_support a b

type factor = { nets : Netlist.net array; signed : bool }

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
  let factor_of =
    let resolved =
      List.map (fun (v, nets) -> (v, { nets; signed = Env.is_signed v env })) inputs
    in
    fun v -> List.assoc v resolved
  in
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
  let k = ref 0 in
  (* support -> accumulated multiplier; the constant monomial goes
     straight into K *)
  let packed = Int_tbl.create 256 in
  let wide = Hashtbl.create 16 in
  let add_packed key m =
    match Int_tbl.find_opt packed key with
    | Some acc -> acc := !acc + m
    | None -> Int_tbl.add packed key (ref m)
  in
  let add_wide supp m =
    match Hashtbl.find_opt wide supp with
    | Some acc -> acc := !acc + m
    | None -> Hashtbl.add wide supp (ref m)
  in
  let chosen = Array.make (Int.max 1 (Sop.max_degree sop)) 0 in
  let add_support degree m =
    match degree with
    | 0 -> k := !k + m
    | 1 -> add_packed (pack1 chosen.(0)) m
    | 2 -> add_packed (pack_pair chosen.(0) chosen.(1)) m
    | _ -> (
      match List.sort_uniq Int.compare (Array.to_list (Array.sub chosen 0 degree)) with
      | [ a ] -> add_packed (pack1 a) m
      | [ a; b ] -> add_packed (pack2 a b) m
      | supp -> add_wide supp m)
  in
  let expand_monomial mono coeff =
    let factors = Array.of_list (List.map factor_of mono) in
    let degree = Array.length factors in
    (* [sign] tracks the product of per-bit signs: the MSB of a signed
       (two's-complement) factor carries weight -2^(w-1), which makes the
       Baugh-Wooley signed partial products fall out of the same
       signed-digit machinery as subtraction.  One checkpoint per tuple
       that reaches a kept column. *)
    let rec enum level sign weight =
      if level = degree then begin
        checkpoint ();
        let m = sign * coeff * (1 lsl weight) in
        if m <> 0 then add_support degree m
      end
      else
        let { nets; signed } = factors.(level) in
        let w = Array.length nets in
        for i = 0 to Int.min (w - 1) (width - 1 - weight) do
          let bit_sign = if signed && i = w - 1 then -1 else 1 in
          chosen.(level) <- nets.(i);
          enum (level + 1) (sign * bit_sign) (weight + i)
        done
    in
    enum 0 1 0
  in
  let matrix = Matrix.create ~max_width:width () in
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
  (* [build supp] is the support's AND, built once, at its first digit
     in range: a support with no digit in range adds no cell. *)
  let emit build supp m =
    let rec go net = function
      | [] -> ()
      | (d : Csd.digit) :: rest ->
        checkpoint ();
        if d.weight >= width then go net rest
        else
          let net = if net < 0 then build supp else net in
          if d.sign > 0 then Matrix.add matrix ~weight:d.weight net
          else begin
            (* -b*2^w  =  ~b*2^w - 2^w *)
            Matrix.add matrix ~weight:d.weight (Netlist.not_ netlist net);
            k := !k - (1 lsl d.weight)
          end;
          go net rest
    in
    go (-1)
      (match config.recoding with
      | Csd -> Csd.recode m
      | Binary -> Csd.binary m)
  in
  (* Emit in ascending support order (see [compare_support]): it numbers
     the AND cells, and so fixes the Verilog bytes. *)
  (if Hashtbl.length wide = 0 then begin
     let keys = Array.make (Int_tbl.length packed) 0 and n = ref 0 in
     Int_tbl.iter
       (fun key m ->
         if !m <> 0 then begin
           keys.(!n) <- key;
           incr n
         end)
       packed;
     let keys = Array.sub keys 0 !n in
     (* keys are distinct; the merge sort is just faster than
        [Array.sort]'s heap sort *)
     Array.stable_sort Int.compare keys;
     let build = and_packed netlist in
     Array.iter (fun key -> emit build key !(Int_tbl.find packed key)) keys
   end
   else
     let nonzero tbl fold key =
       fold (fun supp m l -> if !m <> 0 then (key supp, !m) :: l else l) tbl []
     in
     nonzero packed Int_tbl.fold unpack @ nonzero wide Hashtbl.fold Fun.id
     |> List.sort (fun (a, _) (b, _) -> compare_support a b)
     |> List.iter (fun (supp, m) -> emit (Netlist.and_n netlist) supp m));
  let k_bits = !k land Eval.mask width in
  for j = 0 to width - 1 do
    if (k_bits lsr j) land 1 = 1 then
      Matrix.add matrix ~weight:j (Netlist.const netlist true)
  done;
  matrix
