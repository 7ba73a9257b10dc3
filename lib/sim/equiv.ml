open Dp_netlist

type mismatch = {
  assignment : (string * int) list;
  expected : int;
  actual : int;
}

let pp_mismatch ppf m =
  let pp_binding ppf (name, v) = Fmt.pf ppf "%s=%d" name v in
  Fmt.pf ppf "under %a: expected %d, netlist computed %d"
    Fmt.(list ~sep:(any ", ") pp_binding)
    m.assignment m.expected m.actual

let no_signed (_ : string) = false

let input_widths netlist =
  List.map (fun (name, nets) -> name, Array.length nets) (Netlist.inputs netlist)

(* [Random.State.int] only accepts bounds below 2^30, so wide (crypto-
   limb) operands stitch several 24-bit draws; widths below 30 keep the
   single-draw path so existing seeds reproduce their historic vector
   streams. *)
let rand_bits rng w =
  if w < 30 then Random.State.int rng (1 lsl w)
  else begin
    let acc = ref 0 and got = ref 0 in
    while !got < w do
      let take = min 24 (w - !got) in
      acc := !acc lor (Random.State.int rng (1 lsl take) lsl !got);
      got := !got + take
    done;
    !acc
  end

let random_assignment rng widths =
  List.map (fun (name, w) -> name, rand_bits rng w) widths

(* Batched differential core: simulate up to 64 assignments per netlist
   sweep via [Bitsim], then compare each lane (in order, so the reported
   mismatch is the same first failure the scalar loop would find) against
   the expression evaluator.  [next i] produces the [i]-th assignment. *)
let check_batched ?(signed = no_signed) netlist expr ~output ~width ~total next =
  let widths = input_widths netlist in
  let out_nets = Netlist.find_output netlist output in
  let gov = Netlist.gov netlist in
  let rec block start =
    (match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Sim g
    | None -> ());
    if start >= total then Ok ()
    else begin
      let lanes = min 64 (total - start) in
      let alists = Array.make lanes [] in
      for k = 0 to lanes - 1 do
        alists.(k) <- next (start + k)
      done;
      let values =
        Bitsim.run_lanes netlist ~lanes
          ~assign:(fun lane x -> List.assoc x alists.(lane))
      in
      let rec lane k =
        if k >= lanes then block (start + lanes)
        else begin
          let alist = alists.(k) in
          let interpret x =
            let raw = List.assoc x alist in
            if signed x then
              Dp_expr.Eval.signed_of_pattern ~width:(List.assoc x widths) raw
            else raw
          in
          let expected = Dp_expr.Eval.eval_mod ~width interpret expr in
          let actual = Bitsim.bus_value values out_nets ~lane:k in
          if expected = actual then lane (k + 1)
          else Error { assignment = alist; expected; actual }
        end
      in
      lane 0
    end
  in
  block 0

let check_random ?(seed = 0xC5A) ?signed ~trials netlist expr ~output ~width =
  let rng = Random.State.make [| seed |] in
  let widths = input_widths netlist in
  (* Draw every assignment up front, in the same order the scalar loop
     drew them, so seeds keep reproducing the same vector streams. *)
  let alists = Array.make (max trials 1) [] in
  for i = 0 to trials - 1 do
    alists.(i) <- random_assignment rng widths
  done;
  check_batched ?signed netlist expr ~output ~width ~total:trials (fun i ->
      alists.(i))

let check_exhaustive ?signed netlist expr ~output ~width =
  let widths = input_widths netlist in
  let total_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 widths in
  if total_bits > 22 then
    invalid_arg "Equiv.check_exhaustive: input space too large";
  let rec split code = function
    | [] -> []
    | (name, w) :: rest -> (name, code land Dp_expr.Eval.mask w) :: split (code lsr w) rest
  in
  check_batched ?signed netlist expr ~output ~width ~total:(1 lsl total_bits)
    (fun code -> split code widths)
