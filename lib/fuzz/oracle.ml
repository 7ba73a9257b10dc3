open Dp_netlist

type config = {
  strategies : Dp_flow.Strategy.t list;
  adders : Dp_adders.Adder.kind list;
  trials : int;
  seed : int;
  budget : Budget.t;
  tech : Dp_tech.Tech.t option;
}

let default_config =
  {
    strategies = Dp_flow.Strategy.all;
    adders = Dp_adders.Adder.all;
    trials = 24;
    seed = 0xF12D;
    budget = Budget.default;
    tech = None;
  }

type failure = {
  strategy : Dp_flow.Strategy.t;
  adder : Dp_adders.Adder.kind;
  diag : Dp_diag.Diag.t;
}

type outcome = Pass | Bounded of Dp_diag.Diag.t | Fail of failure

let pp_outcome ppf = function
  | Pass -> Fmt.string ppf "pass"
  | Bounded d -> Fmt.pf ppf "bounded (%s)" d.Dp_diag.Diag.code
  | Fail f ->
    Fmt.pf ppf "FAIL under %a/%a: %a" Dp_flow.Strategy.pp f.strategy
      Dp_adders.Adder.pp f.adder Dp_diag.Diag.pp f.diag

(* The bounded-abort family: the static row check's DP-BUDGET003 plus
   the governor's cancellations ([Dp_gov.Gov]) — a synthesis cut short
   by a resource verdict is [Bounded], never a [Fail]. *)
let is_budget_code code =
  (String.length code >= 9 && String.sub code 0 9 = "DP-BUDGET")
  || Dp_gov.Gov.is_cancel_code code

(* ------------------------------------------------------------------ *)
(* Assignments *)

let rand_bits rng w =
  (* Random.State.int caps below 2^30; stitch chunks for wide vars. *)
  let rec go acc got =
    if got >= w then acc land Dp_expr.Eval.mask w
    else go ((acc lsl 24) lor Random.State.int rng (1 lsl 24)) (got + 24)
  in
  go 0 0

(* Corner assignments first: all-0, all-1, one-hot MSBs, alternating
   bits — the patterns carry chains and sign extensions break on. *)
let corner_assignments (case : Case.t) =
  let specs = case.Case.vars in
  let all f = List.map (fun (v : Case.var_spec) -> (v.name, f v)) specs in
  let base =
    [
      all (fun _ -> 0);
      all (fun v -> Dp_expr.Eval.mask v.width);
      all (fun v -> 1 lsl (v.width - 1));
      all (fun v -> 0x5555555555 land Dp_expr.Eval.mask v.width);
      all (fun v -> 1 land Dp_expr.Eval.mask v.width);
    ]
  in
  let one_hot =
    List.map
      (fun (hot : Case.var_spec) ->
        all (fun v ->
            if v.name = hot.name then Dp_expr.Eval.mask v.width else 0))
      specs
  in
  base @ one_hot

let random_assignment rng (case : Case.t) =
  List.map
    (fun (v : Case.var_spec) -> (v.name, rand_bits rng v.width))
    case.Case.vars

let assignments ~seed ~trials case =
  let rng = Random.State.make [| seed |] in
  corner_assignments case
  @ List.init trials (fun _ -> random_assignment rng case)

(* Interpret a raw pattern as the variable's value (two's complement for
   signed variables). *)
let interpreted_value (case : Case.t) alist name =
  let raw = List.assoc name alist in
  let spec =
    List.find (fun (v : Case.var_spec) -> v.name = name) case.Case.vars
  in
  if spec.signed then Dp_expr.Eval.signed_of_pattern ~width:spec.width raw
  else raw

(* ------------------------------------------------------------------ *)
(* Differential check of one synthesized netlist *)

let pp_alist ppf alist =
  Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int)) ppf alist

let divergence_diag ~code ~ctx fmt = Dp_diag.Diag.errorf ~code ~subsystem:"fuzz" ~context:ctx fmt

(* Check one (assignment, port) pair against lane [lane] of a packed
   [Bitsim] sweep that already simulated the assignment. *)
let check_port_lane ~code ~ctx case netlist values ~lane alist (port, expr, width) =
  let big = Bigval.eval (fun x -> Bigval.of_int (interpreted_value case alist x)) expr in
  let expect_bits = Bigval.to_bits ~width big in
  (* Independent cross-check of the native evaluator itself. *)
  let native =
    Dp_expr.Eval.eval_mod ~width (interpreted_value case alist) expr
  in
  if native <> Bigval.to_int_mod ~width big then
    Error
      (divergence_diag ~code:"DP-FUZZ004"
         ~ctx:(ctx @ [ ("port", port); ("assignment", Fmt.str "%a" pp_alist alist) ])
         "native evaluator computed %d where the bignum reference computed %s \
          (mod 2^%d)"
         native (Bigval.to_string big) width)
  else
    let out_nets = Netlist.find_output netlist port in
    let actual_bit i = Dp_sim.Bitsim.lane_bit values out_nets.(i) ~lane in
    let diverged =
      Array.exists
        (fun i -> actual_bit i <> expect_bits.(i))
        (Array.init (min width (Array.length out_nets)) Fun.id)
    in
    if not diverged then Ok ()
    else
      let actual = Dp_sim.Bitsim.bus_value values out_nets ~lane in
      Error
        (divergence_diag ~code
           ~ctx:
             (ctx
             @ [
                 ("port", port);
                 ("assignment", Fmt.str "%a" pp_alist alist);
                 ("expected", Bigval.to_string big);
                 ("actual", string_of_int actual);
               ])
           "netlist output %s diverges from the reference: expected %s mod \
            2^%d, got %d"
           port (Bigval.to_string big) width actual)

(* Differentially check every (assignment, port) pair, simulating the
   netlist 64 assignments per sweep.  Lanes are scanned assignment-major,
   port-minor, so the first reported failure is the one the scalar loop
   used to find. *)
let check_assignments_batch ~code ~ctx case netlist ports alists =
  let arr = Array.of_list alists in
  let total = Array.length arr in
  let rec block start =
    if start >= total then Ok ()
    else begin
      let lanes = min 64 (total - start) in
      let values =
        Dp_sim.Bitsim.run_lanes netlist ~lanes ~assign:(fun k name ->
            match List.assoc_opt name arr.(start + k) with
            | Some v -> v
            | None -> 0)
      in
      let rec lane k =
        if k >= lanes then block (start + lanes)
        else
          let rec over_ports = function
            | [] -> lane (k + 1)
            | p :: ps -> (
              match
                check_port_lane ~code ~ctx case netlist values ~lane:k
                  arr.(start + k) p
              with
              | Ok () -> over_ports ps
              | Error _ as e -> e)
          in
          over_ports ports
      in
      lane 0
    end
  in
  block 0

(* Annotation sanity: recomputed-from-scratch STA/probabilities must match
   the builder's incremental annotations; arrivals must be finite,
   non-negative and monotone along every cell; switching estimates must
   be finite and non-negative. *)
let check_annotations ~ctx netlist =
  let fail ~code fmt =
    Fmt.kstr (fun msg -> Error (divergence_diag ~code ~ctx "%s" msg)) fmt
  in
  if not (Dp_timing.Sta.agrees_with_annotation ~eps:1e-6 netlist) then
    fail ~code:"DP-FUZZ002"
      "from-scratch STA disagrees with the builder's arrival annotations"
  else begin
    let bad_arrival = ref None in
    for n = 0 to Netlist.net_count netlist - 1 do
      let a = Netlist.arrival netlist n in
      if (not (Float.is_finite a)) || a < 0.0 then
        if !bad_arrival = None then bad_arrival := Some (n, a)
    done;
    match !bad_arrival with
    | Some (n, a) ->
      fail ~code:"DP-FUZZ002" "net %d has a negative or non-finite arrival %g" n a
    | None ->
      let non_monotone = ref None in
      let tech = Netlist.tech netlist in
      for c = 0 to Netlist.cell_count netlist - 1 do
        (* Monotonicity is per (pin, port) path: a port must not arrive
           before any input that actually reaches it.  A 4:2
           compressor's carry-out legitimately precedes its cin. *)
        let kind = Netlist.cell_kind netlist c in
        for port = 0 to Dp_tech.Cell_kind.output_count kind - 1 do
          let out = Netlist.output_net netlist c ~port in
          let latest_in = ref 0.0 in
          for pin = 0 to Netlist.pin_count netlist c - 1 do
            match Dp_tech.Tech.pin_delay tech kind ~pin ~port with
            | Some _ ->
              latest_in :=
                Float.max !latest_in
                  (Netlist.arrival netlist (Netlist.pin netlist c pin))
            | None -> ()
          done;
          if Netlist.arrival netlist out +. 1e-9 < !latest_in then
            if !non_monotone = None then non_monotone := Some (c, out)
        done
      done;
      (match !non_monotone with
      | Some (c, out) ->
        fail ~code:"DP-FUZZ002"
          "cell %d output net %d arrives before one of its inputs" c out
      | None ->
        if not (Dp_power.Prob.agrees_with_annotation ~eps:1e-6 netlist) then
          fail ~code:"DP-FUZZ003"
            "from-scratch probability propagation disagrees with the \
             builder's annotations"
        else
          let tree = Dp_power.Switching.tree_switching netlist in
          let total = Dp_power.Switching.total_switching netlist in
          if
            (not (Float.is_finite tree))
            || (not (Float.is_finite total))
            || tree < -1e-9 || total < -1e-9
          then
            fail ~code:"DP-FUZZ003"
              "switching estimates are negative or non-finite (tree %g, total %g)"
              tree total
          else Ok ())
  end

let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e

let check_netlist ~config ~ctx case netlist ports =
  let* () = Budget.check_cells config.budget netlist in
  let* () = check_annotations ~ctx netlist in
  check_assignments_batch ~code:"DP-FUZZ001" ~ctx case netlist ports
    (assignments ~seed:config.seed ~trials:config.trials case)

(* ------------------------------------------------------------------ *)
(* The full strategy x adder matrix *)

let synth_pair ~config case strategy adder =
  Result.map
    (fun (r : Dp_flow.Synth.multi_result) -> r.netlist)
    (Dp_flow.Synth.run_multi_res ?tech:config.tech ~adder
       ~check_level:Dp_verify.Lint.Strict strategy (Case.env case)
       (List.map
          (fun (name, expr, width) -> { Dp_flow.Synth.name; expr; width })
          case.Case.ports))

let check_pair ~config case strategy adder =
  let ctx =
    [
      ("strategy", Dp_flow.Strategy.name strategy);
      ("adder", Dp_adders.Adder.name adder);
      ("repro", Case.synth_command ~strategy ~adder case);
    ]
  in
  let verdict (d : Dp_diag.Diag.t) =
    if is_budget_code d.code then Bounded d
    else Fail { strategy; adder; diag = d }
  in
  match
    Dp_gov.Gov.with_ambient (Budget.governor config.budget) (fun () ->
        match synth_pair ~config case strategy adder with
        | Error d -> Error d
        | Ok netlist -> check_netlist ~config ~ctx case netlist case.Case.ports)
  with
  | Ok () -> Pass
  | Error d -> verdict d
  | exception Dp_diag.Diag.E d -> verdict d

let check ?(config = default_config) case =
  match Budget.check_static config.budget case with
  | Error d -> Bounded d
  | Ok () ->
    let rec go bounded = function
      | [] -> ( match bounded with Some d -> Bounded d | None -> Pass)
      | (s, a) :: rest -> (
        match check_pair ~config case s a with
        | Pass -> go bounded rest
        | Bounded d -> go (Some d) rest
        | Fail _ as f -> f)
    in
    go None
      (List.concat_map
         (fun s -> List.map (fun a -> (s, a)) config.adders)
         config.strategies)

let test ?config case =
  match check ?config case with
  | Pass | Bounded _ -> None
  | Fail f -> Some f.diag

let diverges_on case ~port ~width netlist alists =
  let expr =
    match
      List.find_opt (fun (name, _, _) -> name = port) case.Case.ports
    with
    | Some (_, e, _) -> e
    | None -> invalid_arg "Oracle.diverges: unknown port"
  in
  match
    check_assignments_batch ~code:"DP-FUZZ001" ~ctx:[] case netlist
      [ (port, expr, width) ] alists
  with
  | Ok () -> false
  | Error _ -> true
  | exception _ -> true (* corrupted netlists may defeat the simulator *)

let diverges ?(seed = 0xF12D) ?(trials = 48) case ~port ~width netlist =
  diverges_on case ~port ~width netlist (assignments ~seed ~trials case)

let all_assignments (case : Case.t) =
  let bits =
    List.fold_left
      (fun acc (v : Case.var_spec) -> acc + v.width)
      0 case.Case.vars
  in
  if bits > 16 then None
  else
    Some
      (List.init (1 lsl bits) (fun code ->
           let off = ref 0 in
           List.map
             (fun (v : Case.var_spec) ->
               let value = (code lsr !off) land Dp_expr.Eval.mask v.width in
               off := !off + v.width;
               (v.name, value))
             case.Case.vars))
