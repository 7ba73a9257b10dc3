type sig_ref = Pin of int | Out of { block : int; port : int }
type block = { fa : bool; args : sig_ref array }
type t = { kind : Cell_kind.t; blocks : block array; outputs : sig_ref array }

let fa args = { fa = true; args }
let ha args = { fa = false; args }
let s block = Out { block; port = 0 }
let c block = Out { block; port = 1 }

let c42 =
  {
    kind = Cell_kind.C42;
    blocks = [| fa [| Pin 0; Pin 1; Pin 2 |]; fa [| s 0; Pin 3; Pin 4 |] |];
    outputs = [| s 1; c 1; c 0 |];
  }

let c53 =
  {
    kind = Cell_kind.C53;
    blocks =
      [|
        fa [| Pin 0; Pin 1; Pin 2 |]; fa [| s 0; Pin 3; Pin 4 |]; ha [| c 0; c 1 |];
      |];
    outputs = [| s 1; s 2; c 2 |];
  }

let c63 =
  {
    kind = Cell_kind.C63;
    blocks =
      [|
        fa [| Pin 0; Pin 1; Pin 2 |];
        fa [| Pin 3; Pin 4; Pin 5 |];
        ha [| s 0; s 1 |];
        fa [| c 2; c 0; c 1 |];
      |];
    outputs = [| s 2; s 3; c 3 |];
  }

let c73 =
  {
    kind = Cell_kind.C73;
    blocks =
      [|
        fa [| Pin 0; Pin 1; Pin 2 |];
        fa [| Pin 3; Pin 4; Pin 5 |];
        fa [| s 0; s 1; Pin 6 |];
        fa [| c 0; c 2; c 1 |];
      |];
    outputs = [| s 2; s 3; c 3 |];
  }

let of_kind (kind : Cell_kind.t) =
  match kind with
  | C42 -> c42
  | C53 -> c53
  | C63 -> c63
  | C73 -> c73
  | Fa | Ha | And_n _ | Or_n _ | Xor_n _ | Not | Buf ->
    invalid_arg "Recipe.of_kind: not a counter"

let fa_count r =
  Array.fold_left (fun acc b -> if b.fa then acc + 1 else acc) 0 r.blocks

let ha_count r =
  Array.fold_left (fun acc b -> if b.fa then acc else acc + 1) 0 r.blocks

let eval r ~pin ~fa ~ha =
  let outs = Array.make (Array.length r.blocks) None in
  let value = function
    | Pin i -> pin i
    | Out { block; port } -> (
      match outs.(block) with
      | Some (sum, carry) -> if port = 0 then sum else carry
      | None -> invalid_arg "Recipe.eval: forward reference")
  in
  Array.iteri
    (fun i b ->
      let arg k = value b.args.(k) in
      outs.(i) <-
        Some (if b.fa then fa (arg 0) (arg 1) (arg 2) else ha (arg 0) (arg 1)))
    r.blocks;
  (value r.outputs.(0), value r.outputs.(1), value r.outputs.(2))
