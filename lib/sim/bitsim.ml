open Dp_netlist

let lane_mask lanes =
  if lanes >= 64 then Int64.minus_one
  else Int64.sub (Int64.shift_left 1L lanes) 1L

(* SWAR popcount; OCaml has no Int64 popcount primitive. *)
let popcount x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add
      (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

(* 64-lane FA/HA blocks, used to evaluate the counters through their
   [Dp_tech.Recipe] bodies — deliberately NOT via popcount, so that this
   boolean evaluation and the arithmetic semantics of the test suite's
   scalar reference simulator cross-check each other. *)
let fa64 a b c =
  let sum = Int64.logxor (Int64.logxor a b) c in
  let carry =
    Int64.logor (Int64.logand a b)
      (Int64.logor (Int64.logand a c) (Int64.logand b c))
  in
  (sum, carry)

let ha64 a b = (Int64.logxor a b, Int64.logand a b)

let eval_cell netlist id kind (values : int64 array) out =
  let v k = values.(Netlist.pin netlist id k) in
  match kind with
  | Dp_tech.Cell_kind.Fa ->
    let sum, carry = fa64 (v 0) (v 1) (v 2) in
    out.(0) <- sum;
    out.(1) <- carry
  | Dp_tech.Cell_kind.Ha ->
    let sum, carry = ha64 (v 0) (v 1) in
    out.(0) <- sum;
    out.(1) <- carry
  | Dp_tech.Cell_kind.(C42 | C53 | C63 | C73) ->
    let s0, s1, s2 =
      Dp_tech.Recipe.eval
        (Dp_tech.Recipe.of_kind kind)
        ~pin:v ~fa:fa64 ~ha:ha64
    in
    out.(0) <- s0;
    out.(1) <- s1;
    out.(2) <- s2
  | Dp_tech.Cell_kind.And_n n ->
    let acc = ref Int64.minus_one in
    for i = 0 to n - 1 do
      acc := Int64.logand !acc (v i)
    done;
    out.(0) <- !acc
  | Dp_tech.Cell_kind.Or_n n ->
    let acc = ref 0L in
    for i = 0 to n - 1 do
      acc := Int64.logor !acc (v i)
    done;
    out.(0) <- !acc
  | Dp_tech.Cell_kind.Xor_n n ->
    let acc = ref 0L in
    for i = 0 to n - 1 do
      acc := Int64.logxor !acc (v i)
    done;
    out.(0) <- !acc
  | Dp_tech.Cell_kind.Not -> out.(0) <- Int64.lognot (v 0)
  | Dp_tech.Cell_kind.Buf -> out.(0) <- v 0

let inputs_below netlist id net =
  let rec from k =
    k >= Netlist.pin_count netlist id
    || (Netlist.pin netlist id k < net && from (k + 1))
  in
  from 0

let run netlist ~assign =
  let n = Netlist.net_count netlist in
  let values = Array.make n 0L in
  let gov = Netlist.gov netlist in
  (* Net ids are topologically ordered: a cell's inputs precede its
     outputs, so one forward pass evaluates all 64 lanes of every net.  A
     cell's outputs are consecutive nets, so it is evaluated once, when
     the first of them comes up, into [ports]; its other outputs read the
     words kept there.  The words are kept only when every input of the
     cell lies below the net being evaluated, as on a lint-clean netlist:
     those values are final.  A cell that reads its own or a later net (a
     [Netlist.Mutate] corruption) is evaluated again for each net it
     drives, from the values it reads at that net. *)
  let ports = Array.make 3 0L in
  let evaluated = ref (-1) and port_count = ref 0 in
  for net = 0 to n - 1 do
    (match gov with
    | Some g -> Dp_gov.Gov.check ~site:Dp_gov.Gov.Sim g
    | None -> ());
    let cell = Netlist.driving_cell netlist net in
    if cell >= 0 then begin
      if cell <> !evaluated then begin
        let kind = Netlist.cell_kind netlist cell in
        eval_cell netlist cell kind values ports;
        evaluated := if inputs_below netlist cell net then cell else -1;
        port_count := Dp_tech.Cell_kind.output_count kind
      end;
      let port = Netlist.driving_port netlist net in
      if port >= !port_count then
        invalid_arg "Bitsim.run: a driver names no such port";
      values.(net) <- ports.(port)
    end
    else
      match Netlist.driver netlist net with
      | Netlist.From_input { var; bit } -> values.(net) <- assign var bit
      | Netlist.From_const b ->
        values.(net) <- (if b then Int64.minus_one else 0L)
      | Netlist.From_cell _ -> invalid_arg "Bitsim.run: a driver names no cell"
  done;
  values

let run_lanes netlist ~lanes ~assign =
  if lanes < 1 || lanes > 64 then
    invalid_arg "Bitsim.run_lanes: lanes must be within [1, 64]";
  let packed = Hashtbl.create 16 in
  List.iter
    (fun (var, nets) ->
      let vals = Array.make lanes 0 in
      for k = 0 to lanes - 1 do
        vals.(k) <- assign k var
      done;
      let words =
        Array.init (Array.length nets) (fun bit ->
            let w = ref 0L in
            for k = 0 to lanes - 1 do
              if (vals.(k) lsr bit) land 1 = 1 then
                w := Int64.logor !w (Int64.shift_left 1L k)
            done;
            !w)
      in
      Hashtbl.replace packed var words)
    (Netlist.inputs netlist);
  run netlist ~assign:(fun var bit -> (Hashtbl.find packed var).(bit))

let lane_bit values net ~lane =
  Int64.logand (Int64.shift_right_logical values.(net) lane) 1L <> 0L

let bus_value values nets ~lane =
  let acc = ref 0 in
  Array.iteri
    (fun bit net -> if lane_bit values net ~lane then acc := !acc lor (1 lsl bit))
    nets;
  !acc

let output_value netlist values ~lane name =
  bus_value values (Netlist.find_output netlist name) ~lane
