open Dp_netlist

type mutation =
  | Rewire_input
  | Cross_outputs
  | Drop_gate
  | Flip_const
  | Forward_input
  | Duplicate_driver
  | Dangling_input
  | Counter_retype
  | Counter_chain

let all =
  [
    Rewire_input;
    Cross_outputs;
    Drop_gate;
    Flip_const;
    Forward_input;
    Duplicate_driver;
    Dangling_input;
    Counter_retype;
    Counter_chain;
  ]

let name = function
  | Rewire_input -> "rewire-input"
  | Cross_outputs -> "cross-outputs"
  | Drop_gate -> "drop-gate"
  | Flip_const -> "flip-const"
  | Forward_input -> "forward-input"
  | Duplicate_driver -> "duplicate-driver"
  | Dangling_input -> "dangling-input"
  | Counter_retype -> "counter-retype"
  | Counter_chain -> "counter-chain"

let expected_rule = function
  | Rewire_input -> None
  | Cross_outputs -> Some Lint.Driver_mismatch
  | Drop_gate -> Some Lint.Arity_violation
  | Flip_const -> Some Lint.Const_prob
  | Forward_input -> Some Lint.Topo_violation
  | Duplicate_driver -> Some Lint.Multiply_driven
  | Dangling_input -> Some Lint.Dangling_ref
  | Counter_retype -> None
  | Counter_chain -> None

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* Cells with at least one input pin, the usual mutation sites. *)
let wired_cells nl =
  List.filter
    (fun c -> Netlist.pin_count nl c > 0)
    (List.init (Netlist.cell_count nl) Fun.id)

(* Nets driven by a cell port, keyed for swapping. *)
let cell_driven_nets nl =
  let acc = ref [] in
  for n = Netlist.net_count nl - 1 downto 0 do
    match Netlist.driver nl n with
    | Netlist.From_cell _ -> acc := n :: !acc
    | Netlist.From_input _ | Netlist.From_const _ -> ()
  done;
  !acc

(* A cell's outputs are consecutive nets, port 0 first. *)
let min_output nl cell = Netlist.output_net nl cell ~port:0

let apply ?(seed = 0) nl mutation =
  let rng = Random.State.make [| seed; Hashtbl.hash (name mutation) |] in
  match mutation with
  | Rewire_input ->
    (* Keep the net ordering legal — only the function changes. *)
    let sites =
      List.filter_map
        (fun c ->
          let bound = min (min_output nl c) (Netlist.net_count nl) in
          let pins =
            List.filter
              (fun pin ->
                (* at least one candidate net differs from the current one *)
                bound > 1 || (bound = 1 && Netlist.pin nl c pin <> 0))
              (List.init (Netlist.pin_count nl c) Fun.id)
          in
          match pins with [] -> None | _ -> Some (c, pins, bound))
        (wired_cells nl)
    in
    Option.map
      (fun (c, pins, bound) ->
        let pin = Option.get (pick rng pins) in
        let current = Netlist.pin nl c pin in
        let rec fresh () =
          let n = Random.State.int rng bound in
          if n = current then fresh () else n
        in
        let replacement = fresh () in
        Netlist.Mutate.set_cell_input nl ~cell:c ~pin replacement;
        Printf.sprintf "rewired cell %d pin %d from net %d to net %d" c pin
          current replacement)
      (pick rng sites)
  | Cross_outputs -> (
    match cell_driven_nets nl with
    | [] | [ _ ] -> None
    | nets ->
      let a = Option.get (pick rng nets) in
      let b = Option.get (pick rng (List.filter (fun n -> n <> a) nets)) in
      let da = Netlist.driver nl a and db = Netlist.driver nl b in
      Netlist.Mutate.set_driver nl a db;
      Netlist.Mutate.set_driver nl b da;
      Some (Printf.sprintf "swapped the drivers of nets %d and %d" a b))
  | Drop_gate ->
    Option.map
      (fun c ->
        let kind = Netlist.cell_kind nl c in
        let pins = Netlist.pin_count nl c in
        Netlist.Mutate.set_cell nl c kind [||];
        Printf.sprintf "dropped the %d inputs of cell %d (%s)" pins c
          (Dp_tech.Cell_kind.name kind))
      (pick rng (wired_cells nl))
  | Flip_const ->
    let consts = ref [] in
    for n = Netlist.net_count nl - 1 downto 0 do
      match Netlist.driver nl n with
      | Netlist.From_const b -> consts := (n, b) :: !consts
      | Netlist.From_input _ | Netlist.From_cell _ -> ()
    done;
    Option.map
      (fun (n, b) ->
        Netlist.Mutate.set_driver nl n (Netlist.From_const (not b));
        Printf.sprintf "flipped constant net %d from %b to %b" n b (not b))
      (pick rng !consts)
  | Forward_input ->
    let sites =
      List.filter (fun c -> min_output nl c < Netlist.net_count nl)
        (wired_cells nl)
    in
    Option.map
      (fun c ->
        let pin = Random.State.int rng (Netlist.pin_count nl c) in
        let lo = min_output nl c in
        let target = lo + Random.State.int rng (Netlist.net_count nl - lo) in
        Netlist.Mutate.set_cell_input nl ~cell:c ~pin target;
        Printf.sprintf "rewired cell %d pin %d forward to net %d" c pin target)
      (pick rng sites)
  | Duplicate_driver -> (
    match cell_driven_nets nl with
    | [] | [ _ ] -> None
    | nets ->
      let a = Option.get (pick rng nets) in
      let b = Option.get (pick rng (List.filter (fun n -> n <> a) nets)) in
      Netlist.Mutate.set_driver nl b (Netlist.driver nl a);
      Some (Printf.sprintf "net %d now claims net %d's driver" b a))
  | Dangling_input ->
    Option.map
      (fun c ->
        let pin = Random.State.int rng (Netlist.pin_count nl c) in
        let target = Netlist.net_count nl + 1 + Random.State.int rng 64 in
        Netlist.Mutate.set_cell_input nl ~cell:c ~pin target;
        Printf.sprintf "cell %d pin %d now references nonexistent net %d" c pin
          target)
      (pick rng (wired_cells nl))
  | Counter_retype ->
    (* 4:2 compressors and 5:3 counters share arity and output count, so
       swapping the kind keeps every structural invariant — only the
       per-port functions (and the output weights they assume) change. *)
    let sites =
      List.filter
        (fun c ->
          match Netlist.cell_kind nl c with
          | Dp_tech.Cell_kind.C42 | Dp_tech.Cell_kind.C53 -> true
          | _ -> false)
        (wired_cells nl)
    in
    Option.map
      (fun c ->
        let kind = Netlist.cell_kind nl c in
        let kind' =
          match kind with
          | Dp_tech.Cell_kind.C42 -> Dp_tech.Cell_kind.C53
          | _ -> Dp_tech.Cell_kind.C42
        in
        Netlist.Mutate.set_cell nl c kind'
          (Array.init (Netlist.pin_count nl c) (Netlist.pin nl c));
        Printf.sprintf "retyped counter cell %d from %s to %s" c
          (Dp_tech.Cell_kind.name kind)
          (Dp_tech.Cell_kind.name kind'))
      (pick rng sites)
  | Counter_chain ->
    (* Rewire a compressor's cin (pin 4, the carry-chain pin) onto one of
       its own data pins: the chain net is lost but the wiring stays
       legal, so only equivalence checking can see the corruption. *)
    let sites =
      List.filter_map
        (fun c ->
          if Netlist.cell_kind nl c <> Dp_tech.Cell_kind.C42 then None
          else
            let cin = Netlist.pin nl c 4 in
            match
              List.filter (fun p -> Netlist.pin nl c p <> cin) [ 0; 1; 2; 3 ]
            with
            | [] -> None
            | pins -> Some (c, cin, pins))
        (wired_cells nl)
    in
    Option.map
      (fun (c, cin, pins) ->
        let pin = Option.get (pick rng pins) in
        let src = Netlist.pin nl c pin in
        Netlist.Mutate.set_cell_input nl ~cell:c ~pin:4 src;
        Printf.sprintf
          "corrupted counter cell %d carry chain: cin net %d replaced by its \
           own data net %d"
          c cin src)
      (pick rng sites)
