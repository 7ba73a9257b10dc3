(* The flat netlist arena against the record-based builder it replaced
   ([Netlist_reference]).  Every synthesized netlist is replayed net by
   net through the reference: inputs and constants in net order, and each
   cell through the reference builder of its kind.  A seeded random
   builder sequence, with constant and duplicate inputs, degraded
   counters and [Mutate] overrides, runs against both.  Kinds, pins,
   drivers and the bits of every arrival and probability must agree. *)

open Dp_netlist
open Helpers
module Ref = Netlist_reference

let bits = Int64.bits_of_float

(* The first difference between the arena and the reference, if any. *)
let difference (n : Netlist.t) (r : Ref.t) =
  let diff = ref None in
  let note fmt = Printf.ksprintf (fun s -> if !diff = None then diff := Some s) fmt in
  if Netlist.net_count n <> Ref.net_count r then
    note "net counts %d vs %d" (Netlist.net_count n) (Ref.net_count r)
  else if Netlist.cell_count n <> Ref.cell_count r then
    note "cell counts %d vs %d" (Netlist.cell_count n) (Ref.cell_count r)
  else begin
    for net = 0 to Netlist.net_count n - 1 do
      if Netlist.driver n net <> Ref.driver r net then note "net %d: drivers" net;
      if bits (Netlist.arrival n net) <> bits (Ref.arrival r net) then
        note "net %d: arrival %h vs %h" net (Netlist.arrival n net)
          (Ref.arrival r net);
      if bits (Netlist.prob n net) <> bits (Ref.prob r net) then
        note "net %d: prob %h vs %h" net (Netlist.prob n net) (Ref.prob r net)
    done;
    for id = 0 to Netlist.cell_count n - 1 do
      let c = Ref.cell r id in
      if Netlist.cell n id <> c then note "cell %d: kind or pins" id;
      if Netlist.cell_kind n id <> c.kind then note "cell %d: kind" id;
      if Netlist.pin_count n id <> Array.length c.inputs then
        note "cell %d: pin count" id
      else
        Array.iteri
          (fun k net -> if Netlist.pin n id k <> net then note "cell %d: pin %d" id k)
          c.inputs
    done;
    if Netlist.inputs n <> Ref.inputs r then note "input buses";
    if Netlist.outputs n <> Ref.outputs r then note "output buses"
  end;
  !diff

let same label n r =
  match difference n r with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" label d

(* Rebuild [nl] through the reference, net by net. *)
let replay label nl =
  let r = Ref.create ~tech:(Netlist.tech nl) in
  let expect what got net =
    if got <> net then
      Alcotest.failf "%s: replaying %s gave net %d, not %d" label what got net
  in
  for net = 0 to Netlist.net_count nl - 1 do
    match Netlist.driver nl net with
    | Netlist.From_input { var; bit = 0 } ->
      let nets = List.assoc var (Netlist.inputs nl) in
      let got =
        Ref.add_input r var ~width:(Array.length nets)
          ~arrival:(Array.map (Netlist.arrival nl) nets)
          ~prob:(Array.map (Netlist.prob nl) nets)
      in
      expect ("input " ^ var) got.(0) net
    | Netlist.From_const b -> expect "a constant" (Ref.const r b) net
    | Netlist.From_cell { cell; port = 0 } ->
      let p = (Netlist.cell nl cell).inputs in
      let first3 (s, _, _) = s in
      let kind = Netlist.cell_kind nl cell in
      let got =
        match kind with
        | Dp_tech.Cell_kind.Fa -> fst (Ref.fa r p.(0) p.(1) p.(2))
        | Ha -> fst (Ref.ha r p.(0) p.(1))
        | C42 -> first3 (Ref.c42 r p)
        | C53 -> first3 (Ref.c53 r p)
        | C63 -> first3 (Ref.c63 r p)
        | C73 -> first3 (Ref.c73 r p)
        | And_n _ -> Ref.and_n r (Array.to_list p)
        | Or_n _ -> Ref.or_n r (Array.to_list p)
        | Xor_n 2 -> Ref.xor2 r p.(0) p.(1)
        | Xor_n _ -> Alcotest.failf "%s: cell %d is a wide XOR" label cell
        | Not -> Ref.not_ r p.(0)
        | Buf -> Ref.buf r p.(0)
      in
      expect (Dp_tech.Cell_kind.name kind) got net;
      if Ref.cell_count r <> cell + 1 then
        Alcotest.failf "%s: replaying cell %d built %d cells" label cell
          (Ref.cell_count r - cell)
    | Netlist.From_input _ | Netlist.From_cell _ -> ()
  done;
  List.iter (fun (name, nets) -> Ref.set_output r name nets) (Netlist.outputs nl);
  same label nl r

let replay_designs designs strategies () =
  List.iter
    (fun (d : Dp_designs.Design.t) ->
      List.iter
        (fun strategy ->
          let r = Dp_flow.Synth.run strategy d.env d.expr ~width:d.width in
          replay
            (Printf.sprintf "%s/%s" d.name (Dp_flow.Strategy.name strategy))
            r.netlist)
        strategies)
    designs

let crypto_strategies =
  Dp_flow.Strategy.[ Fa_aot; Fa_alp; Sc_t_gpc; Sc_lp_gpc; Dadda_gpc ]

(* Fuzzed cases, multi-output ones included, each under the next
   strategy in turn. *)
let replay_fuzz ~config ~seed n () =
  let rng = Random.State.make [| seed |] in
  let strategies = Array.of_list Dp_flow.Strategy.all in
  let built = ref 0 in
  for i = 0 to n - 1 do
    let case_ = Dp_fuzz.Gen.case ~config rng i in
    let ports =
      List.map
        (fun (name, expr, width) -> { Dp_flow.Synth.name; expr; width })
        case_.Dp_fuzz.Case.ports
    in
    let strategy = strategies.(i mod Array.length strategies) in
    match Dp_flow.Synth.run_multi_res strategy (Dp_fuzz.Case.env case_) ports with
    | Ok r ->
      incr built;
      replay (Printf.sprintf "fuzz %d/%s" i (Dp_flow.Strategy.name strategy)) r.netlist
    | Error _ -> ()
  done;
  checkb "most cases synthesize" true (!built * 10 >= n * 9)

(* ------------------------------------------------------------------ *)
(* A seeded random builder sequence, applied to both.  Each step returns
   the nets it built, or [Error ()] if it raised [Invalid_argument];
   both must return the same. *)

let outcome f = match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let random_sequence seed () =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  let tech = Dp_tech.Tech.lcb_like in
  let n = Netlist.create ~tech and r = Ref.create ~tech in
  let inputs = ref 0 in
  let add_input () =
    let width = 1 + int 4 in
    let extreme () =
      match int 4 with 0 -> 0.0 | 1 -> 1.0 | _ -> Random.State.float rng 1.0
    in
    let arrival = Array.init width (fun _ -> float_of_int (int 5) *. 0.25) in
    let prob = Array.init width (fun _ -> extreme ()) in
    let name = Printf.sprintf "v%d" !inputs in
    incr inputs;
    ( Netlist.add_input n name ~width ~arrival ~prob,
      Ref.add_input r name ~width ~arrival ~prob )
  in
  for _ = 1 to 3 do
    ignore (add_input ())
  done;
  (* a net: a constant, or any existing net (so duplicates are common) *)
  let net () =
    match int 8 with
    | 0 ->
      let b = int 2 = 0 in
      let c = Netlist.const n b in
      if Ref.const r b <> c then Alcotest.failf "seed %d: constants differ" seed;
      c
    | _ -> int (Netlist.net_count n)
  in
  let nets k = List.init k (fun _ -> net ()) in
  let pins k = Array.init k (fun _ -> net ()) in
  let counter kind p =
    let f, g =
      match (kind : Dp_tech.Cell_kind.t) with
      | C42 -> (Netlist.c42, Ref.c42)
      | C53 -> (Netlist.c53, Ref.c53)
      | C63 -> (Netlist.c63, Ref.c63)
      | _ -> (Netlist.c73, Ref.c73)
    in
    let three (a, b, c) = [ a; b; c ] in
    ((fun () -> three (f n p)), fun () -> three (g r p))
  in
  let kinds =
    Dp_tech.Cell_kind.
      [| Fa; Ha; C42; C53; C63; C73; And_n 2; Or_n 3; Xor_n 2; Not; Buf; And_n 1 |]
  in
  let driver () =
    match int 3 with
    | 0 -> Netlist.From_const (int 2 = 0)
    | 1 -> Netlist.From_input { var = "v0"; bit = int 3 }
    | _ ->
      Netlist.From_cell { cell = int (Netlist.cell_count n + 2) - 1; port = int 3 }
  in
  let step i =
    let one f g = ((fun () -> [ f n ]), fun () -> [ g r ]) in
    let pair (a, b) = [ a; b ] in
    let build, reference =
      match int 20 with
      | 0 ->
        let a, b = add_input () in
        ((fun () -> Array.to_list a), fun () -> Array.to_list b)
      | 1 ->
        let b = int 2 = 0 in
        one (fun n -> Netlist.const n b) (fun r -> Ref.const r b)
      | 2 ->
        let a = net () in
        one (fun n -> Netlist.not_ n a) (fun r -> Ref.not_ r a)
      | 3 ->
        let a = net () in
        one (fun n -> Netlist.buf n a) (fun r -> Ref.buf r a)
      | 4 ->
        let a = net () and b = net () in
        one (fun n -> Netlist.and2 n a b) (fun r -> Ref.and_n r [ a; b ])
      | 5 ->
        let a = net () and b = net () in
        one (fun n -> Netlist.or2 n a b) (fun r -> Ref.or_n r [ a; b ])
      | 6 ->
        let l = nets (int 5) in
        one (fun n -> Netlist.and_n n l) (fun r -> Ref.and_n r l)
      | 7 ->
        let l = nets (int 5) in
        one (fun n -> Netlist.or_n n l) (fun r -> Ref.or_n r l)
      | 8 ->
        let a = net () and b = net () in
        one (fun n -> Netlist.xor2 n a b) (fun r -> Ref.xor2 r a b)
      | 9 ->
        let l = nets (int 4) in
        one (fun n -> Netlist.xor_n n l) (fun r -> Ref.xor_n r l)
      | 10 | 11 ->
        let a = net () and b = net () in
        ((fun () -> pair (Netlist.ha n a b)), fun () -> pair (Ref.ha r a b))
      | 12 | 13 | 14 ->
        let a = net () and b = net () and c = net () in
        ((fun () -> pair (Netlist.fa n a b c)), fun () -> pair (Ref.fa r a b c))
      | 15 ->
        let kind = kinds.(2 + int 4) in
        counter kind (pins (Dp_tech.Cell_kind.arity kind))
      | 16 ->
        let at = net () and d = driver () in
        ( (fun () -> Netlist.Mutate.set_driver n at d; []),
          fun () -> Ref.Mutate.set_driver r at d; [] )
      | 17 ->
        let at = net () and p = Random.State.float rng 1.0 in
        ( (fun () -> Netlist.Mutate.set_prob n at p; []),
          fun () -> Ref.Mutate.set_prob r at p; [] )
      | 18 ->
        let cell = int (Netlist.cell_count n + 1) in
        let kind = kinds.(int (Array.length kinds)) in
        let c =
          { Netlist.kind; inputs = pins (Int.max 0 (Dp_tech.Cell_kind.arity kind - int 2)) }
        in
        ( (fun () -> Netlist.Mutate.set_cell n cell c.kind c.inputs; []),
          fun () -> Ref.Mutate.set_cell r cell c; [] )
      | _ ->
        let cell = int (Netlist.cell_count n + 1) and pin = int 4 and at = net () in
        ( (fun () -> Netlist.Mutate.set_cell_input n ~cell ~pin at; []),
          fun () -> Ref.Mutate.set_cell_input r ~cell ~pin at; [] )
    in
    let a = outcome build and b = outcome reference in
    if a <> b then Alcotest.failf "seed %d step %d: the builders disagree" seed i;
    if i mod 25 = 0 then same (Printf.sprintf "seed %d step %d" seed i) n r
  in
  for i = 1 to 400 do
    step i
  done;
  same (Printf.sprintf "seed %d" seed) n r

let suite =
  [
    case "arena: catalog and table2 x every strategy replay through the reference"
      (replay_designs
         (Dp_designs.Catalog.all @ Dp_designs.Catalog.table2)
         Dp_flow.Strategy.all);
    case "arena: MulModDiag256 and MacChain replay through the reference"
      (replay_designs
         [ Dp_designs.Crypto.mul_mod_diag; Dp_designs.Crypto.mac_chain ]
         crypto_strategies);
    case "arena: fuzzed cases replay through the reference (default envelope)"
      (replay_fuzz ~config:Dp_fuzz.Gen.default_config ~seed:0xa7e4 120);
    case "arena: fuzzed cases replay through the reference (crypto envelope)"
      (replay_fuzz ~config:Dp_fuzz.Gen.crypto_config ~seed:0xa7e5 30);
    case "arena: random builder sequences = reference" (fun () ->
        List.iter (fun seed -> random_sequence seed ()) (List.init 40 Fun.id));
  ]
