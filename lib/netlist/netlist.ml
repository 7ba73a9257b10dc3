type net = int

type driver =
  | From_input of { var : string; bit : int }
  | From_const of bool
  | From_cell of { cell : int; port : int }

type cell = { kind : Dp_tech.Cell_kind.t; inputs : net array }

(* Growable int and float columns.  [get], [set] and [push] are inlined
   into the builders, so an annotation travels from one float column to
   another without being boxed on the way. *)
module Ints = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let grow v =
    let data = Array.make (2 * Array.length v.data) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data

  let[@inline] get v i =
    if i < 0 || i >= v.len then invalid_arg "Netlist: index out of bounds";
    Array.unsafe_get v.data i

  let[@inline] set v i x =
    if i < 0 || i >= v.len then invalid_arg "Netlist: index out of bounds";
    Array.unsafe_set v.data i x

  let[@inline] push v x =
    if v.len = Array.length v.data then grow v;
    Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1
end

module Floats = struct
  type t = { mutable data : Float.Array.t; mutable len : int }

  let create () = { data = Float.Array.make 64 0.0; len = 0 }

  let grow v =
    let data = Float.Array.make (2 * Float.Array.length v.data) 0.0 in
    Float.Array.blit v.data 0 data 0 v.len;
    v.data <- data

  let[@inline] get v i =
    if i < 0 || i >= v.len then invalid_arg "Netlist: index out of bounds";
    Float.Array.unsafe_get v.data i

  let[@inline] set v i x =
    if i < 0 || i >= v.len then invalid_arg "Netlist: index out of bounds";
    Float.Array.unsafe_set v.data i x

  let[@inline] push v x =
    if v.len = Float.Array.length v.data then grow v;
    Float.Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1
end

(* [Float.max] and [Float.min], inlined so that their operands stay
   unboxed.  [fmax neg_infinity x] is [x], bit for bit, so the builders
   below start the worst-pin fold of [add_cell] at the first pin. *)
let[@inline] fmax (x : float) y =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

let[@inline] fmin (x : float) y =
  if y < x || (Float.sign_bit y && not (Float.sign_bit x)) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

type t = {
  tech : Dp_tech.Tech.t;
  (* One int per net.  A cell output holds its driving cell's id, and its
     port is the net minus the cell's first output: a cell's outputs are
     consecutive nets, port 0 first.  An input, a constant or a
     [Mutate.set_driver] override holds [-1 - i], where [i] indexes
     [side_drivers]. *)
  net_codes : Ints.t;
  mutable side_drivers : driver array;
  mutable side_count : int;
  arrival : Floats.t;
  prob : Floats.t;
  (* One entry per cell in each of [kinds] ([Dp_tech.Cell_kind.code]),
     [first_pins], [pin_counts] and [first_outputs].  Cell [i]'s pins are
     [pins.(first_pins.(i) + k)] for [k < pin_counts.(i)]; a [Mutate]
     override appends the cell's new pins to [pins]. *)
  kinds : Ints.t;
  first_pins : Ints.t;
  pin_counts : Ints.t;
  first_outputs : Ints.t;
  pins : Ints.t;
  (* [Tech.delay] of the two-port adders and the one-port gates the
     builders below write directly, then [Tech.pin_delay] of the
     counters, looked up once (see [delay_slots] and [counter_slot]). *)
  delays : Float.Array.t;
  mutable inputs : (string * net array) list;  (* reverse declaration order *)
  mutable outputs : (string * net array) list;  (* reverse declaration order *)
  (* name -> bus indices over [inputs]/[outputs]; the lists keep the
     declaration order, the tables make lookup and duplicate detection O(1) *)
  input_index : (string, net array) Hashtbl.t;
  output_index : (string, net array) Hashtbl.t;
  mutable const_false : net option;
  mutable const_true : net option;
  not_cache : net Int_tbl.t;
  (* Structural hashing of AND/OR gates: two-input gates (partial
     products, prefix and carry logic) by their packed pair
     [(lo lsl 31) lor hi] (net ids stay below 2^31), wider ones by their
     sorted input list. *)
  and2_cache : net Int_tbl.t;
  or2_cache : net Int_tbl.t;
  and_cache : (net list, net) Hashtbl.t;
  or_cache : (net list, net) Hashtbl.t;
  (* The ambient governor at creation time, if any.  Every cell is opened
     through [open_cell], the one chokepoint every construction path
     funnels through (lowering, reduction, baselines, adders), so polling
     it there bounds every builder without per-algorithm plumbing.
     Mutable only so the serve boundary can detach it: a netlist that
     outlives its request (cache entry, marshalled copy) must not
     resurrect a stale governor. *)
  mutable gov : Dp_gov.Gov.t option;
}

let fa_code = Dp_tech.Cell_kind.code Fa
let ha_code = Dp_tech.Cell_kind.code Ha
let and2_code = Dp_tech.Cell_kind.code (And_n 2)
let or2_code = Dp_tech.Cell_kind.code (Or_n 2)
let xor2_code = Dp_tech.Cell_kind.code (Xor_n 2)
let not_code = Dp_tech.Cell_kind.code Not

(* Slots of [delays]. *)
let d_fa_sum = 0
let d_fa_carry = 1
let d_ha_sum = 2
let d_ha_carry = 3
let d_and2 = 4
let d_or2 = 5
let d_xor2 = 6
let d_not = 7

let delay_slots : (Dp_tech.Cell_kind.t * int) array =
  [| (Fa, 0); (Fa, 1); (Ha, 0); (Ha, 1); (And_n 2, 0); (Or_n 2, 0);
     (Xor_n 2, 0); (Not, 0) |]

(* Past the slots above, [delays] holds each counter's delay from [pin]
   to [port], nan where the pin does not reach the port.  The counters'
   kind codes are consecutive, C42 first; each takes 3 ports of up to 7
   pins. *)
let counter_kinds : Dp_tech.Cell_kind.t array = [| C42; C53; C63; C73 |]
let c42_code = Dp_tech.Cell_kind.code C42

let[@inline] counter_slot code ~pin ~port =
  Array.length delay_slots + ((((code - c42_code) * 3) + port) * 7) + pin

let delay_table tech =
  let gates = Array.length delay_slots in
  let table =
    Float.Array.make (gates + (Array.length counter_kinds * 3 * 7)) nan
  in
  Array.iteri
    (fun i (kind, port) ->
      Float.Array.set table i (Dp_tech.Tech.delay tech kind ~port))
    delay_slots;
  Array.iter
    (fun kind ->
      let code = Dp_tech.Cell_kind.code kind in
      for port = 0 to 2 do
        for pin = 0 to Dp_tech.Cell_kind.arity kind - 1 do
          match Dp_tech.Tech.pin_delay tech kind ~pin ~port with
          | Some d -> Float.Array.set table (counter_slot code ~pin ~port) d
          | None -> ()
        done
      done)
    counter_kinds;
  table

let create ~tech =
  {
    tech;
    gov = Dp_gov.Gov.ambient ();
    net_codes = Ints.create ();
    side_drivers = Array.make 16 (From_const false);
    side_count = 0;
    arrival = Floats.create ();
    prob = Floats.create ();
    kinds = Ints.create ();
    first_pins = Ints.create ();
    pin_counts = Ints.create ();
    first_outputs = Ints.create ();
    pins = Ints.create ();
    delays = delay_table tech;
    inputs = [];
    outputs = [];
    input_index = Hashtbl.create 16;
    output_index = Hashtbl.create 16;
    const_false = None;
    const_true = None;
    not_cache = Int_tbl.create 64;
    and2_cache = Int_tbl.create 64;
    or2_cache = Int_tbl.create 64;
    and_cache = Hashtbl.create 64;
    or_cache = Hashtbl.create 64;
  }

let tech t = t.tech
let gov t = t.gov
let detach_gov t = t.gov <- None
let net_count t = t.net_codes.len
let cell_count t = t.kinds.len

let[@inline] side_driver t code = t.side_drivers.(-1 - code)

(* [driving_cell] and [driving_port] are the decoders of [net_codes];
   [driver] builds its record from them. *)
let[@inline] driving_cell t n =
  let code = Ints.get t.net_codes n in
  if code >= 0 then code
  else
    match side_driver t code with
    | From_cell { cell; port = _ } -> cell
    | From_input _ | From_const _ -> -1

let[@inline] driving_port t n =
  let code = Ints.get t.net_codes n in
  if code >= 0 then n - Ints.get t.first_outputs code
  else
    match side_driver t code with
    | From_cell { cell = _; port } -> port
    | From_input _ | From_const _ -> -1

let driver t n =
  let cell = driving_cell t n in
  if cell >= 0 then From_cell { cell; port = driving_port t n }
  else side_driver t (Ints.get t.net_codes n)

let[@inline] arrival t n = Floats.get t.arrival n
let[@inline] prob t n = Floats.get t.prob n
let[@inline] q t n = prob t n -. 0.5

let[@inline] compare_arrival t a b = Float.compare (arrival t a) (arrival t b)

let[@inline] compare_abs_q t a b =
  Float.compare (Float.abs (q t a)) (Float.abs (q t b))

let[@inline] cell_code t i = Ints.get t.kinds i
let[@inline] cell_kind t i = Dp_tech.Cell_kind.of_code (cell_code t i)
let[@inline] pin_count t i = Ints.get t.pin_counts i

let[@inline] pin t i k =
  if k < 0 || k >= Ints.get t.pin_counts i then
    invalid_arg "Netlist.pin: no such pin";
  Ints.get t.pins (Ints.get t.first_pins i + k)

let cell t i =
  { kind = cell_kind t i; inputs = Array.init (pin_count t i) (pin t i) }

let[@inline] output_net t cell ~port = Ints.get t.first_outputs cell + port

let cell_output_nets t i =
  let first = Ints.get t.first_outputs i in
  Array.init
    (Dp_tech.Cell_kind.output_count (cell_kind t i))
    (fun port -> first + port)

(* The incremental probability formulas (paper Sec. 4.2) can round a few
   ulps outside [0,1] at extreme input probabilities; clamp here so every
   stored annotation honours the invariant the lint enforces. *)
let[@inline] push_net t ~code ~arrival ~prob =
  let n = t.net_codes.len in
  Ints.push t.net_codes code;
  Floats.push t.arrival arrival;
  Floats.push t.prob (fmax 0.0 (fmin 1.0 prob));
  n

(* A net whose driver is not a cell. *)
let push_side t d =
  if t.side_count = Array.length t.side_drivers then begin
    let a = Array.make (2 * t.side_count) d in
    Array.blit t.side_drivers 0 a 0 t.side_count;
    t.side_drivers <- a
  end;
  t.side_drivers.(t.side_count) <- d;
  t.side_count <- t.side_count + 1;
  -t.side_count

let new_net t ~driver ~arrival ~prob =
  push_net t ~code:(push_side t driver) ~arrival ~prob

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
   consults its side driver. *)
let const_value t n =
  let code = Ints.get t.net_codes n in
  if code >= 0 then None
  else
    match side_driver t code with
    | From_const v -> Some v
    | From_input _ | From_cell _ -> None

let is_const t n b =
  let code = Ints.get t.net_codes n in
  code < 0
  &&
  match side_driver t code with
  | From_const v -> Bool.equal v b
  | From_input _ | From_cell _ -> false

let[@inline] is_plain t n =
  let code = Ints.get t.net_codes n in
  code >= 0
  ||
  match side_driver t code with
  | From_const _ -> false
  | From_input _ | From_cell _ -> true

(* Start a cell: poll the governor, then record its kind, where its pins
   will go and its first output net.  The caller pushes the pins and one
   net per output port (consecutive, port 0 first), with arrival and
   probability computed incrementally from the technology and the
   formulas of the paper's Secs. 3.1 and 4.2. *)
let[@inline] open_cell t code ~pin_count =
  (* Checkpoint before publishing anything: an abort here leaves the
     netlist exactly as it was after the previous complete cell. *)
  (match t.gov with
  | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Netlist ~cells:t.kinds.len g
  | None -> ());
  let id = t.kinds.len in
  Ints.push t.kinds code;
  Ints.push t.first_pins t.pins.len;
  Ints.push t.pin_counts pin_count;
  Ints.push t.first_outputs t.net_codes.len;
  id

(* A one-input, one-output cell of delay slot [d]. *)
let[@inline] cell1 t code ~d a ~p =
  let at = arrival t a +. Float.Array.unsafe_get t.delays d in
  let id = open_cell t code ~pin_count:1 in
  Ints.push t.pins a;
  push_net t ~code:id ~arrival:at ~prob:p

(* A two-input, one-output cell on [a], [b]; both pins reach the output
   with delay slot [d0]. *)
let[@inline] cell2 t code ~d0 a b ~p0 =
  let d = Float.Array.unsafe_get t.delays d0 in
  let at = fmax (arrival t a +. d) (arrival t b +. d) in
  let id = open_cell t code ~pin_count:2 in
  Ints.push t.pins a;
  Ints.push t.pins b;
  push_net t ~code:id ~arrival:at ~prob:p0

(* Instantiate a one-output gate of any kind from its pin array: the
   wide gates and the buffer.  Returns the output net. *)
let add_cell t kind inputs ~prob =
  let arity = Dp_tech.Cell_kind.arity kind in
  if Array.length inputs <> arity then
    invalid_arg "Netlist.add_cell: arity mismatch";
  let id = open_cell t (Dp_tech.Cell_kind.code kind) ~pin_count:arity in
  Array.iter (Ints.push t.pins) inputs;
  (* Every pin reaches the output with the gate's one delay. *)
  let d = Dp_tech.Tech.delay t.tech kind ~port:0 in
  let worst = ref neg_infinity in
  for pin = 0 to arity - 1 do
    worst := fmax !worst (arrival t inputs.(pin) +. d)
  done;
  push_net t ~code:id ~arrival:!worst ~prob

(* One output of counter [id] (kind [code], pins [nets]): its arrival is
   the worst over the pins that reach [port], through the pin-resolved
   delays of [counter_slot]; a 4:2's carry-out ignores its late carry-in
   pin entirely. *)
let[@inline] counter_port t id code nets ~port ~p =
  let worst = ref neg_infinity in
  for pin = 0 to Array.length nets - 1 do
    let d = Float.Array.get t.delays (counter_slot code ~pin ~port) in
    if not (Float.is_nan d) then
      worst := fmax !worst (arrival t (Array.unsafe_get nets pin) +. d)
  done;
  ignore (push_net t ~code:id ~arrival:!worst ~prob:p)

(* A counter cell on [nets] (its arity, checked by the caller), with
   port probabilities [p0], [p1], [p2].  Returns the port-0 net. *)
let[@inline] counter_cell t kind nets ~p0 ~p1 ~p2 =
  let code = Dp_tech.Cell_kind.code kind in
  let id = open_cell t code ~pin_count:(Array.length nets) in
  for pin = 0 to Array.length nets - 1 do
    Ints.push t.pins (Array.unsafe_get nets pin)
  done;
  let first = t.net_codes.len in
  counter_port t id code nets ~port:0 ~p:p0;
  counter_port t id code nets ~port:1 ~p:p1;
  counter_port t id code nets ~port:2 ~p:p2;
  first

(* The cell whose port 0 drives [n], or -1. *)
let port0_cell t n =
  let c = driving_cell t n in
  if c >= 0 && driving_port t n = 0 then c else -1

let not_ t a =
  match const_value t a with
  | Some b -> const t (not b)
  | None -> (
    match Int_tbl.find_opt t.not_cache a with
    | Some n -> n
    | None ->
      let c = port0_cell t a in
      let n =
        if c >= 0 && cell_code t c = not_code then
          (* double negation: reuse the NOT's input *)
          pin t c 0
        else cell1 t not_code ~d:d_not a ~p:(1.0 -. prob t a)
      in
      Int_tbl.add t.not_cache a n;
      n)

let buf t a = add_cell t Dp_tech.Cell_kind.Buf [| a |] ~prob:(prob t a)

(* Two-input AND ([or_] false) or OR on distinct non-constant nets,
   hashed on the packed pair. *)
let[@inline] gate2 t ~or_ a b =
  let lo = Int.min a b and hi = Int.max a b in
  let key = (lo lsl 31) lor hi in
  let cache = if or_ then t.or2_cache else t.and2_cache in
  match Int_tbl.find_opt cache key with
  | Some n -> n
  | None ->
    let pa = prob t lo and pb = prob t hi in
    let n =
      if or_ then
        cell2 t or2_code ~d0:d_or2 lo hi
          ~p0:(1.0 -. ((1.0 *. (1.0 -. pa)) *. (1.0 -. pb)))
      else cell2 t and2_code ~d0:d_and2 lo hi ~p0:((1.0 *. pa) *. pb)
    in
    Int_tbl.add cache key n;
    n

let and_prob ps = List.fold_left ( *. ) 1.0 ps
let or_prob ps = 1.0 -. List.fold_left (fun acc p -> acc *. (1.0 -. p)) 1.0 ps

(* Shared n-ary AND/OR construction: constant folding, duplicate removal,
   structural hashing on the sorted input list.  Every gate that comes
   down to two distinct inputs goes through [gate2]. *)
let nary t ~or_ nets =
  let nets = List.filter (fun n -> not (is_const t n (not or_))) nets in
  if List.exists (fun n -> is_const t n or_) nets then const t or_
  else
    match List.sort_uniq Int.compare nets with
    | [] -> const t (not or_)
    | [ n ] -> n
    | [ a; b ] -> gate2 t ~or_ a b
    | nets -> (
      let cache = if or_ then t.or_cache else t.and_cache in
      match Hashtbl.find_opt cache nets with
      | Some n -> n
      | None ->
        let arity = List.length nets in
        let ps = List.map (prob t) nets in
        let kind, p =
          if or_ then (Dp_tech.Cell_kind.Or_n arity, or_prob ps)
          else (Dp_tech.Cell_kind.And_n arity, and_prob ps)
        in
        let n = add_cell t kind (Array.of_list nets) ~prob:p in
        Hashtbl.add cache nets n;
        n)

(* Two non-constant nets take no list; anything else folds as [nary]
   folds. *)
let[@inline] gate2_of t ~or_ a b =
  if is_plain t a && is_plain t b then if a = b then a else gate2 t ~or_ a b
  else nary t ~or_ [ a; b ]

let and2 t a b = gate2_of t ~or_:false a b
let or2 t a b = gate2_of t ~or_:true a b

let and_n t = function
  | [ a; b ] -> and2 t a b
  | nets -> nary t ~or_:false nets

let or_n t = function
  | [ a; b ] -> or2 t a b
  | nets -> nary t ~or_:true nets

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
      let pa = prob t a and pb = prob t b in
      cell2 t xor2_code ~d0:d_xor2 a b ~p0:(pa +. pb -. (2.0 *. pa *. pb))

and xor_n t nets =
  match nets with
  | [] -> const t false
  | [ n ] -> n
  | first :: rest -> List.fold_left (xor2 t) first rest

let ha_cell t a b =
  let qa = q t a and qb = q t b in
  let p_sum = 0.5 -. (2.0 *. qa *. qb) in
  let p_carry = 0.25 +. (qa *. qb) +. (0.5 *. (qa +. qb)) in
  let aa = arrival t a and ab = arrival t b in
  let ds = Float.Array.unsafe_get t.delays d_ha_sum in
  let dc = Float.Array.unsafe_get t.delays d_ha_carry in
  let id = open_cell t ha_code ~pin_count:2 in
  Ints.push t.pins a;
  Ints.push t.pins b;
  let sum = push_net t ~code:id ~arrival:(fmax (aa +. ds) (ab +. ds)) ~prob:p_sum in
  ignore
    (push_net t ~code:id ~arrival:(fmax (aa +. dc) (ab +. dc)) ~prob:p_carry);
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
  let aa = arrival t a and ab = arrival t b and ac = arrival t c in
  let ds = Float.Array.unsafe_get t.delays d_fa_sum in
  let dc = Float.Array.unsafe_get t.delays d_fa_carry in
  let id = open_cell t fa_code ~pin_count:3 in
  Ints.push t.pins a;
  Ints.push t.pins b;
  Ints.push t.pins c;
  let sum =
    push_net t ~code:id
      ~arrival:(fmax (fmax (aa +. ds) (ab +. ds)) (ac +. ds))
      ~prob:p_sum
  in
  ignore
    (push_net t ~code:id
       ~arrival:(fmax (fmax (aa +. dc) (ab +. dc)) (ac +. dc))
       ~prob:p_carry);
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
      not_ t (xor2 t x y), or2 t x y
    | _ :: _ :: _ :: _, _ -> fa_cell t a b c

(* ------------------------------------------------------------------ *)
(* Generalized parallel counters (monolithic cells).                   *)

(* The distribution of the popcount of independent inputs, by
   convolving their Bernoulli counts: [dist.(c)] is the probability that
   exactly [c] of [nets] are 1.  [bit_prob] reads off the probability
   that binary digit [b] of the count is 1.  [Dp_power.Prob] recomputes
   the same quantities by minterm enumeration as an independent
   cross-check; both carry the paper's independence assumption. *)
let popcount_distribution t nets =
  let m = Array.length nets in
  let dist = Float.Array.make (m + 1) 0.0 in
  Float.Array.set dist 0 1.0;
  for i = 0 to m - 1 do
    let p = prob t nets.(i) in
    for c = i + 1 downto 1 do
      Float.Array.set dist c
        ((Float.Array.get dist c *. (1.0 -. p))
        +. (Float.Array.get dist (c - 1) *. p))
    done;
    Float.Array.set dist 0 (Float.Array.get dist 0 *. (1.0 -. p))
  done;
  dist

let[@inline] bit_prob dist b =
  let acc = ref 0.0 in
  for c = 0 to Float.Array.length dist - 1 do
    if c land (1 lsl b) <> 0 then acc := !acc +. Float.Array.get dist c
  done;
  !acc

let[@inline] xor2_prob pa pb = pa +. pb -. (2.0 *. pa *. pb)

let[@inline] maj3_prob pa pb pc =
  (pa *. pb) +. (pa *. pc) +. (pb *. pc) -. (2.0 *. pa *. pb *. pc)

let[@inline] xor3_prob pa pb pc = xor2_prob (xor2_prob pa pb) pc

let has_const_input t nets =
  let found = ref false in
  for i = 0 to Array.length nets - 1 do
    if not (is_plain t nets.(i)) then found := true
  done;
  !found

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
    let dist = popcount_distribution t nets in
    let s0 =
      counter_cell t kind nets ~p0:(bit_prob dist 0) ~p1:(bit_prob dist 1)
        ~p2:(bit_prob dist 2)
    in
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
    let sum =
      counter_cell t Dp_tech.Cell_kind.C42 nets ~p0:(xor3_prob pu p4 pc)
        ~p1:(maj3_prob pu p4 pc) ~p2:(maj3_prob p1 p2 p3)
    in
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

let iter_cells f t =
  for i = 0 to cell_count t - 1 do
    f i (cell t i)
  done

let fold_cells f acc t =
  let acc = ref acc in
  for i = 0 to cell_count t - 1 do
    acc := f !acc (cell t i)
  done;
  !acc

(* Summed in cell order, as a left fold over the cells would, from a
   table of each kind's area. *)
let area t =
  let top = ref (-1) in
  for i = 0 to cell_count t - 1 do
    top := Int.max !top (Ints.get t.kinds i)
  done;
  let table =
    Float.Array.init (!top + 1) (fun code ->
        Dp_tech.Tech.area t.tech (Dp_tech.Cell_kind.of_code code))
  in
  let total = ref 0.0 in
  for i = 0 to cell_count t - 1 do
    total := !total +. Float.Array.get table (Ints.get t.kinds i)
  done;
  !total

module Mutate = struct
  let set_driver t n d = Ints.set t.net_codes n (push_side t d)
  let set_prob t n p = Floats.set t.prob n p

  let set_cell t i c =
    Ints.set t.kinds i (Dp_tech.Cell_kind.code c.kind);
    Ints.set t.first_pins i t.pins.len;
    Ints.set t.pin_counts i (Array.length c.inputs);
    Array.iter (Ints.push t.pins) c.inputs

  let set_cell_input t ~cell ~pin net =
    if pin < 0 || pin >= pin_count t cell then
      invalid_arg "Netlist.Mutate.set_cell_input: no such pin";
    Ints.set t.pins (Ints.get t.first_pins cell + pin) net
end

let max_output_arrival t =
  List.fold_left
    (fun acc (_, nets) ->
      Array.fold_left (fun acc n -> Float.max acc (arrival t n)) acc nets)
    neg_infinity (outputs t)
