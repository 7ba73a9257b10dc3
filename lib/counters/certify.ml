open Dp_tech

let eps = 1e-9

let fail kind fmt =
  Fmt.kstr
    (fun msg ->
      Dp_diag.Diag.fail
        (Dp_diag.Diag.v ~code:"DP-CTR001" ~subsystem:"counters"
           ~context:[ ("kind", Cell_kind.name kind) ]
           msg))
    fmt

let check tech (r : Recipe.t) =
  let kind = r.kind in
  let m = Cell_kind.arity kind in
  (* 0. Well-formed: FAs take three arguments and HAs two, and every
     reference names a pin of the cell or an earlier block. *)
  let valid ~before = function
    | Recipe.Pin i -> i >= 0 && i < m
    | Recipe.Out { block; port } ->
      block >= 0 && block < before && (port = 0 || port = 1)
  in
  Array.iteri
    (fun i (b : Recipe.block) ->
      if
        Array.length b.args <> (if b.fa then 3 else 2)
        || not (Array.for_all (valid ~before:i) b.args)
      then fail kind "block %d is malformed" i)
    r.blocks;
  if
    Array.length r.outputs <> 3
    || not (Array.for_all (valid ~before:(Array.length r.blocks)) r.outputs)
  then fail kind "output ports are malformed";
  (* 1. Exhaustive functional equivalence: the body computes the
     arithmetic spec on all 2^m assignments, every port. *)
  for v = 0 to (1 lsl m) - 1 do
    for port = 0 to 2 do
      if Body.port_value r ~port v <> Spec.port_value kind ~port v then
        fail kind "body disagrees with spec on port %d, assignment %#x" port v
    done;
    if Body.weighted_value r v <> Spec.popcount v then
      fail kind "body violates the popcount invariant on assignment %#x" v
  done;
  (* 2. The technology's closed-form pin delays are exactly the recipe's
     path delays — including which pins have no path at all. *)
  for pin = 0 to m - 1 do
    for port = 0 to 2 do
      match
        (Tech.pin_delay tech kind ~pin ~port, Model.pin_delay tech r ~pin ~port)
      with
      | None, None -> ()
      | Some a, Some b when Float.abs (a -. b) <= eps -> ()
      | Some a, Some b ->
        fail kind
          "pin %d -> port %d: technology says %.17g, body implies %.17g" pin
          port a b
      | Some _, None | None, Some _ ->
        fail kind "pin %d -> port %d: path existence mismatch" pin port
    done
  done;
  (* 3. Area and energy conservation against the body. *)
  let ta = Tech.area tech kind and ba = Model.area tech r in
  if Float.abs (ta -. ba) > eps then
    fail kind "area mismatch: technology %.17g, body %.17g" ta ba;
  let te =
    Tech.energy tech kind ~port:0
    +. Tech.energy tech kind ~port:1
    +. Tech.energy tech kind ~port:2
  and be = Model.total_energy tech r in
  if Float.abs (te -. be) > eps then
    fail kind "energy not conserved: technology ports sum %.17g, body %.17g"
      te be

(* Memoized per technology: the strategies call [ensure] on every synth,
   so the certificates must be cheap after the first run — but remain a
   load-bearing gate, not a test-only artifact.  Worker threads share the
   memo, so the check-and-insert runs under [lock]. *)
let certified : (Tech.t, unit) Hashtbl.t = Hashtbl.create 4
let lock = Mutex.create ()

let ensure tech =
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem certified tech) then begin
        List.iter (fun kind -> check tech (Recipe.of_kind kind)) Spec.kinds;
        Hashtbl.add certified tech ()
      end)
