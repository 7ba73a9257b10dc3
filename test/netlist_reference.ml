(* The record-based netlist builder that [Dp_netlist.Netlist]'s flat
   arena replaced, kept as the reference that [Test_netlist] replays
   every synthesized netlist through, cell by cell, and runs random
   builder sequences against.  Its nets, drivers and cells are the
   library's types, so the two compare directly.  Not used outside the
   tests. *)

open Dp_netlist

type net = int

type driver = Netlist.driver =
  | From_input of { var : string; bit : int }
  | From_const of bool
  | From_cell of { cell : int; port : int }

type cell = Netlist.cell = { kind : Dp_tech.Cell_kind.t; inputs : net array }

type t = {
  tech : Dp_tech.Tech.t;
  (* One int per net.  A cell output holds its driving cell's id, and its
     port is the net minus the cell's first output: a cell's outputs are
     consecutive nets, port 0 first.  An input, a constant or a
     [Mutate.set_driver] override holds [-1 - i], where [i] indexes
     [side_drivers]. *)
  net_codes : int Vec.t;
  side_drivers : driver Vec.t;
  arrival : float Vec.t;
  prob : float Vec.t;
  cells : cell Vec.t;
  first_outputs : net Vec.t;
  mutable inputs : (string * net array) list;  (* reverse declaration order *)
  mutable outputs : (string * net array) list;  (* reverse declaration order *)
  (* name -> bus indices over [inputs]/[outputs]; the lists keep the
     declaration order, the tables make lookup and duplicate detection O(1) *)
  input_index : (string, net array) Hashtbl.t;
  output_index : (string, net array) Hashtbl.t;
  mutable const_false : net option;
  mutable const_true : net option;
  not_cache : (net, net) Hashtbl.t;
  (* Structural hashing of AND/OR gates: two-input gates (partial
     products, prefix and carry logic) by their packed pair
     [(lo lsl 31) lor hi] (net ids stay below 2^31), wider ones by their
     sorted input list. *)
  and2_cache : net Int_tbl.t;
  or2_cache : net Int_tbl.t;
  and_cache : (net list, net) Hashtbl.t;
  or_cache : (net list, net) Hashtbl.t;
  (* The ambient governor at creation time, if any.  [add_cell] is the
     one chokepoint every construction path funnels through (lowering,
     reduction, baselines, adders), so polling it here bounds every
     builder without per-algorithm plumbing.  Mutable only so the serve
     boundary can detach it: a netlist that outlives its request (cache
     entry, marshalled copy) must not resurrect a stale governor. *)
  mutable gov : Dp_gov.Gov.t option;
}

let create ~tech =
  {
    tech;
    gov = Dp_gov.Gov.ambient ();
    net_codes = Vec.create ~dummy:0;
    side_drivers = Vec.create ~dummy:(From_const false);
    arrival = Vec.create ~dummy:0.0;
    prob = Vec.create ~dummy:0.0;
    cells = Vec.create ~dummy:{ kind = Dp_tech.Cell_kind.Buf; inputs = [||] };
    first_outputs = Vec.create ~dummy:0;
    inputs = [];
    outputs = [];
    input_index = Hashtbl.create 16;
    output_index = Hashtbl.create 16;
    const_false = None;
    const_true = None;
    not_cache = Hashtbl.create 64;
    and2_cache = Int_tbl.create 64;
    or2_cache = Int_tbl.create 64;
    and_cache = Hashtbl.create 64;
    or_cache = Hashtbl.create 64;
  }

let tech t = t.tech
let gov t = t.gov
let detach_gov t = t.gov <- None
let net_count t = Vec.length t.net_codes
let cell_count t = Vec.length t.cells

(* [driving_cell] and [driving_port] are the decoders of [net_codes];
   [driver] builds its record from them. *)
let driving_cell t n =
  let code = Vec.get t.net_codes n in
  if code >= 0 then code
  else
    match Vec.get t.side_drivers (-1 - code) with
    | From_cell { cell; port = _ } -> cell
    | From_input _ | From_const _ -> -1

let driving_port t n =
  let code = Vec.get t.net_codes n in
  if code >= 0 then n - Vec.get t.first_outputs code
  else
    match Vec.get t.side_drivers (-1 - code) with
    | From_cell { cell = _; port } -> port
    | From_input _ | From_const _ -> -1

let driver t n =
  let cell = driving_cell t n in
  if cell >= 0 then From_cell { cell; port = driving_port t n }
  else Vec.get t.side_drivers (-1 - Vec.get t.net_codes n)

let arrival t n = Vec.get t.arrival n
let prob t n = Vec.get t.prob n
let q t n = prob t n -. 0.5
let cell t i = Vec.get t.cells i
let output_net t cell ~port = Vec.get t.first_outputs cell + port

let cell_output_nets t i =
  let first = Vec.get t.first_outputs i in
  Array.init
    (Dp_tech.Cell_kind.output_count (cell t i).kind)
    (fun port -> first + port)

let push_net t ~code ~arrival ~prob =
  (* The incremental probability formulas (paper Sec. 4.2) can round a
     few ulps outside [0,1] at extreme input probabilities; clamp here so
     every stored annotation honours the invariant the lint enforces. *)
  let prob = Float.max 0.0 (Float.min 1.0 prob) in
  let n = Vec.push t.net_codes code in
  let n' = Vec.push t.arrival arrival in
  let n'' = Vec.push t.prob prob in
  assert (n = n' && n = n'');
  n

(* A net whose driver is not a cell. *)
let new_net t ~driver ~arrival ~prob =
  let code = -1 - Vec.push t.side_drivers driver in
  push_net t ~code ~arrival ~prob

let add_input ?arrival ?prob t name ~width =
  if Hashtbl.mem t.input_index name then
    invalid_arg (Printf.sprintf "Netlist.add_input: duplicate input %s" name);
  let arr = match arrival with None -> Array.make width 0.0 | Some a -> a in
  let pr = match prob with None -> Array.make width 0.5 | Some p -> p in
  if Array.length arr <> width || Array.length pr <> width then
    invalid_arg "Netlist.add_input: attribute length mismatch";
  let nets =
    Array.init width (fun bit ->
        new_net t
          ~driver:(From_input { var = name; bit })
          ~arrival:arr.(bit) ~prob:pr.(bit))
  in
  t.inputs <- (name, nets) :: t.inputs;
  Hashtbl.replace t.input_index name nets;
  nets

let const t b =
  let cached = if b then t.const_true else t.const_false in
  match cached with
  | Some n -> n
  | None ->
    let n =
      new_net t ~driver:(From_const b) ~arrival:0.0
        ~prob:(if b then 1.0 else 0.0)
    in
    if b then t.const_true <- Some n else t.const_false <- Some n;
    n

(* The const/plain tests read the int code; only a net no cell drives
   consults its side driver, which is stored, never built. *)
let const_value t n =
  let code = Vec.get t.net_codes n in
  if code >= 0 then None
  else
    match Vec.get t.side_drivers (-1 - code) with
    | From_const v -> Some v
    | From_input _ | From_cell _ -> None

let is_const t n b =
  let code = Vec.get t.net_codes n in
  code < 0
  &&
  match Vec.get t.side_drivers (-1 - code) with
  | From_const v -> Bool.equal v b
  | From_input _ | From_cell _ -> false

let is_plain t n =
  let code = Vec.get t.net_codes n in
  code >= 0
  ||
  match Vec.get t.side_drivers (-1 - code) with
  | From_const _ -> false
  | From_input _ | From_cell _ -> true

(* Instantiate a cell, creating one net per output (consecutive, port 0
   first) with arrival/probability computed incrementally from the
   technology and the formulas of the paper's Secs. 3.1 and 4.2.  Returns
   the port-0 net. *)
let add_cell t kind inputs ~out_probs =
  (* Checkpoint before publishing anything: an abort here leaves the
     netlist exactly as it was after the previous complete cell. *)
  (match t.gov with
  | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Netlist ~cells:(Vec.length t.cells) g
  | None -> ());
  let arity = Dp_tech.Cell_kind.arity kind in
  if Array.length inputs <> arity then
    invalid_arg "Netlist.add_cell: arity mismatch";
  let cell_id = Vec.push t.cells { kind; inputs } in
  let first = Vec.length t.net_codes in
  let id' = Vec.push t.first_outputs first in
  assert (id' = cell_id);
  (* Per-port arrival: worst over the pins that actually reach the port.
     For conventional cells every pin reaches every port with the port's
     one delay, so this reduces to max-input-arrival + delay; the
     counters' pin-resolved model makes e.g. a 4:2's carry-out ignore its
     late carry-in pin entirely. *)
  let counter = Dp_tech.Cell_kind.is_counter kind in
  for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
    let worst = ref neg_infinity in
    if counter then
      for pin = 0 to arity - 1 do
        match Dp_tech.Tech.pin_delay t.tech kind ~pin ~port with
        | Some d -> worst := Float.max !worst (arrival t inputs.(pin) +. d)
        | None -> ()
      done
    else begin
      let d = Dp_tech.Tech.delay t.tech kind ~port in
      for pin = 0 to arity - 1 do
        worst := Float.max !worst (arrival t inputs.(pin) +. d)
      done
    end;
    ignore (push_net t ~code:cell_id ~arrival:!worst ~prob:out_probs.(port))
  done;
  first

(* The cell whose port 0 drives [n], or -1. *)
let port0_cell t n =
  let c = driving_cell t n in
  if c >= 0 && driving_port t n = 0 then c else -1

let not_ t a =
  match const_value t a with
  | Some b -> const t (not b)
  | None -> (
    match Hashtbl.find_opt t.not_cache a with
    | Some n -> n
    | None ->
      let c = port0_cell t a in
      let n =
        if c >= 0 && Dp_tech.Cell_kind.equal (cell t c).kind Not then
          (* double negation: reuse the NOT's input *)
          (cell t c).inputs.(0)
        else
          add_cell t Dp_tech.Cell_kind.Not [| a |]
            ~out_probs:[| 1.0 -. prob t a |]
      in
      Hashtbl.add t.not_cache a n;
      n)

let buf t a = add_cell t Dp_tech.Cell_kind.Buf [| a |] ~out_probs:[| prob t a |]

(* Two-input gate on distinct non-constant nets, hashed on the packed
   pair. *)
let gate2 t ~cache ~kind_of ~prob2 a b =
  let lo = Int.min a b and hi = Int.max a b in
  let key = (lo lsl 31) lor hi in
  match Int_tbl.find_opt cache key with
  | Some n -> n
  | None ->
    let p = prob2 (prob t lo) (prob t hi) in
    let n = add_cell t (kind_of 2) [| lo; hi |] ~out_probs:[| p |] in
    Int_tbl.add cache key n;
    n

(* Shared n-ary gate construction: constant folding, duplicate removal,
   structural hashing on the sorted input list.  Every gate that comes
   down to two distinct inputs goes through [gate2], whatever list it
   was asked for; two non-constant nets get there without building any
   list.  [prob2 pa pb] equals [prob_of [pa; pb]] bit for bit. *)
let nary t ~cache ~cache2 ~kind_of ~unit_const ~absorbing_const ~prob_of ~prob2
    nets =
  match nets with
  | [ a; b ] when is_plain t a && is_plain t b ->
    if a = b then a else gate2 t ~cache:cache2 ~kind_of ~prob2 a b
  | _ -> (
    let nets = List.filter (fun n -> not (is_const t n unit_const)) nets in
    if List.exists (fun n -> is_const t n absorbing_const) nets then
      const t absorbing_const
    else
      match List.sort_uniq Int.compare nets with
      | [] -> const t unit_const
      | [ n ] -> n
      | [ a; b ] -> gate2 t ~cache:cache2 ~kind_of ~prob2 a b
      | nets -> (
        match Hashtbl.find_opt cache nets with
        | Some n -> n
        | None ->
          let arity = List.length nets in
          let p = prob_of (List.map (prob t) nets) in
          let n =
            add_cell t (kind_of arity) (Array.of_list nets) ~out_probs:[| p |]
          in
          Hashtbl.add cache nets n;
          n))

let and_prob ps = List.fold_left ( *. ) 1.0 ps
let and_prob2 pa pb = (1.0 *. pa) *. pb
let or_prob ps = 1.0 -. List.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 ps
let or_prob2 pa pb = 1.0 -. ((1.0 *. (1.0 -. pa)) *. (1.0 -. pb))

let and_n t nets =
  nary t ~cache:t.and_cache ~cache2:t.and2_cache
    ~kind_of:(fun n -> Dp_tech.Cell_kind.And_n n)
    ~unit_const:true ~absorbing_const:false
    ~prob_of:and_prob ~prob2:and_prob2 nets

let or_n t nets =
  nary t ~cache:t.or_cache ~cache2:t.or2_cache
    ~kind_of:(fun n -> Dp_tech.Cell_kind.Or_n n)
    ~unit_const:false ~absorbing_const:true
    ~prob_of:or_prob ~prob2:or_prob2 nets

let xor2_prob pa pb = pa +. pb -. (2.0 *. pa *. pb)

let rec xor2 t a b =
  match const_value t a, const_value t b with
  | Some va, Some vb -> const t (va <> vb)
  | Some false, None -> b
  | Some true, None -> not_ t b
  | None, Some false -> a
  | None, Some true -> not_ t a
  | None, None ->
    if a = b then const t false
    else
      let a, b = if a <= b then a, b else b, a in
      add_cell t (Dp_tech.Cell_kind.Xor_n 2) [| a; b |]
        ~out_probs:[| xor2_prob (prob t a) (prob t b) |]

and xor_n t nets =
  match nets with
  | [] -> const t false
  | [ n ] -> n
  | first :: rest -> List.fold_left (xor2 t) first rest

let ha_cell t a b =
  let qa = q t a and qb = q t b in
  let p_sum = 0.5 -. (2.0 *. qa *. qb) in
  let p_carry = 0.25 +. (qa *. qb) +. (0.5 *. (qa +. qb)) in
  let sum =
    add_cell t Dp_tech.Cell_kind.Ha [| a; b |] ~out_probs:[| p_sum; p_carry |]
  in
  sum, sum + 1

(* Half adder with constant elimination: HA(x,0) = (x, 0); HA(x,1) = (~x, x). *)
let rec ha t a b =
  if is_plain t a && is_plain t b then ha_cell t a b
  else
    match const_value t a, const_value t b with
    | Some _, None -> ha t b a
    | None, Some false -> a, const t false
    | None, Some true -> not_ t a, a
    | Some va, Some vb -> const t (va <> vb), const t (va && vb)
    | None, None -> ha_cell t a b

let fa_cell t a b c =
  let qx = q t a and qy = q t b and qz = q t c in
  (* Paper Sec. 4.2: q(s) = 4 qx qy qz;
     q(c) = 0.5 (qx + qy + qz) - 2 qx qy qz. *)
  let p_sum = 0.5 +. (4.0 *. qx *. qy *. qz) in
  let p_carry = 0.5 +. (0.5 *. (qx +. qy +. qz)) -. (2.0 *. qx *. qy *. qz) in
  let sum =
    add_cell t Dp_tech.Cell_kind.Fa [| a; b; c |]
      ~out_probs:[| p_sum; p_carry |]
  in
  sum, sum + 1

(* Full adder.  Constant inputs degrade it: FA(x,y,0) = HA(x,y) and
   FA(x,y,1) = (~(x^y), x|y). *)
let fa t a b c =
  if is_plain t a && is_plain t b && is_plain t c then fa_cell t a b c
  else
    let consts, vars =
      List.partition (fun n -> const_value t n <> None) [ a; b; c ]
    in
    let const_sum =
      List.fold_left
        (fun acc n -> if is_const t n true then acc + 1 else acc)
        0 consts
    in
    match vars, const_sum with
    | [], k -> const t (k land 1 = 1), const t (k >= 2)
    | [ x ], 0 -> x, const t false
    | [ x ], 1 -> not_ t x, x
    | [ x ], _ -> x, const t true
    | [ x; y ], 0 -> ha t x y
    | [ x; y ], _ ->
      (* sum = ~(x^y), carry = x|y *)
      not_ t (xor2 t x y), or_n t [ x; y ]
    | _ :: _ :: _ :: _, _ -> fa_cell t a b c

(* ------------------------------------------------------------------ *)
(* Generalized parallel counters (monolithic cells).                   *)

(* 1-probabilities of the binary digits of popcount over independent
   inputs, by convolving the Bernoulli count distribution.  [Dp_power.Prob]
   recomputes the same quantities by minterm enumeration as an independent
   cross-check; both carry the paper's independence assumption. *)
let popcount_bit_probs t nets =
  let m = Array.length nets in
  let dist = Array.make (m + 1) 0.0 in
  dist.(0) <- 1.0;
  Array.iteri
    (fun i n ->
      let p = prob t n in
      for c = i + 1 downto 1 do
        dist.(c) <- (dist.(c) *. (1.0 -. p)) +. (dist.(c - 1) *. p)
      done;
      dist.(0) <- dist.(0) *. (1.0 -. p))
    nets;
  Array.init 3 (fun b ->
      let acc = ref 0.0 in
      for c = 0 to m do
        if c land (1 lsl b) <> 0 then acc := !acc +. dist.(c)
      done;
      !acc)

let maj3_prob pa pb pc =
  (pa *. pb) +. (pa *. pc) +. (pb *. pc) -. (2.0 *. pa *. pb *. pc)

let xor3_prob pa pb pc = xor2_prob (xor2_prob pa pb) pc

let has_const_input t nets =
  Array.exists (fun n -> const_value t n <> None) nets

let check_arity kind nets =
  if Array.length nets <> Dp_tech.Cell_kind.arity kind then
    invalid_arg
      (Printf.sprintf "Netlist.%s: arity mismatch"
         (String.lowercase_ascii (Dp_tech.Cell_kind.name kind)))

(* The counter's FA/HA body from [Dp_tech.Recipe], built through [fa]/[ha].
   Used when a constant input lets the counter degrade: the builders fold
   the constants away, so e.g. C53(a,b,c,d,0) costs one FA + one FA + one
   HA with the zero absorbed. *)
let counter_body t kind nets =
  check_arity kind nets;
  Dp_tech.Recipe.eval
    (Dp_tech.Recipe.of_kind kind)
    ~pin:(fun i -> nets.(i))
    ~fa:(fa t) ~ha:(ha t)

let pure_counter t kind nets =
  check_arity kind nets;
  if has_const_input t nets then counter_body t kind nets
  else
    let s0 = add_cell t kind nets ~out_probs:(popcount_bit_probs t nets) in
    (s0, s0 + 1, s0 + 2)

let c53 t nets = pure_counter t Dp_tech.Cell_kind.C53 nets
let c63 t nets = pure_counter t Dp_tech.Cell_kind.C63 nets
let c73 t nets = pure_counter t Dp_tech.Cell_kind.C73 nets

let c42 t nets =
  check_arity Dp_tech.Cell_kind.C42 nets;
  if has_const_input t nets then counter_body t Dp_tech.Cell_kind.C42 nets
  else
    (* sum = (x1^x2^x3) ^ x4 ^ cin; carry = maj(x1^x2^x3, x4, cin);
       cout = maj(x1, x2, x3) — the cin-independent chain output. *)
    let x1 = nets.(0) and x2 = nets.(1) and x3 = nets.(2) in
    let x4 = nets.(3) and cin = nets.(4) in
    let p1 = prob t x1 and p2 = prob t x2 and p3 = prob t x3 in
    let p4 = prob t x4 and pc = prob t cin in
    let pu = xor3_prob p1 p2 p3 in
    let out_probs =
      [| xor3_prob pu p4 pc; maj3_prob pu p4 pc; maj3_prob p1 p2 p3 |]
    in
    let sum = add_cell t Dp_tech.Cell_kind.C42 nets ~out_probs in
    (sum, sum + 1, sum + 2)

let set_output t name nets =
  if Hashtbl.mem t.output_index name then
    invalid_arg (Printf.sprintf "Netlist.set_output: duplicate output %s" name);
  let nets = Array.copy nets in
  t.outputs <- (name, nets) :: t.outputs;
  Hashtbl.replace t.output_index name nets

let inputs t = List.rev t.inputs
let outputs t = List.rev t.outputs

let find_output t name =
  match Hashtbl.find_opt t.output_index name with
  | Some nets -> nets
  | None -> invalid_arg (Printf.sprintf "Netlist.find_output: no output %s" name)

let iter_cells f t = Vec.iteri f t.cells
let fold_cells f acc t = Vec.fold f acc t.cells

let area t =
  fold_cells (fun acc c -> acc +. Dp_tech.Tech.area t.tech c.kind) 0.0 t

module Mutate = struct
  let set_driver t n d =
    Vec.set t.net_codes n (-1 - Vec.length t.side_drivers);
    ignore (Vec.push t.side_drivers d)
  let set_prob t n p = Vec.set t.prob n p
  let set_cell t i c = Vec.set t.cells i c

  let set_cell_input t ~cell ~pin net =
    let c = Vec.get t.cells cell in
    let inputs = Array.copy c.inputs in
    inputs.(pin) <- net;
    Vec.set t.cells cell { c with inputs }
end

let max_output_arrival t =
  List.fold_left
    (fun acc (_, nets) ->
      Array.fold_left (fun acc n -> Float.max acc (arrival t n)) acc nets)
    neg_infinity (outputs t)
