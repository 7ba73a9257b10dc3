type t =
  | Fa
  | Ha
  | C42
  | C53
  | C63
  | C73
  | And_n of int
  | Or_n of int
  | Xor_n of int
  | Not
  | Buf

let equal a b =
  match a, b with
  | Fa, Fa | Ha, Ha | C42, C42 | C53, C53 | C63, C63 | C73, C73
  | Not, Not | Buf, Buf ->
    true
  | And_n n, And_n m | Or_n n, Or_n m | Xor_n n, Xor_n m -> n = m
  | (Fa | Ha | C42 | C53 | C63 | C73 | And_n _ | Or_n _ | Xor_n _ | Not | Buf), _
    ->
    false

let arity = function
  | Fa -> 3
  | Ha -> 2
  | C42 -> 5 (* x1..x4 on pins 0-3, cin on pin 4 *)
  | C53 -> 5
  | C63 -> 6
  | C73 -> 7
  | And_n n | Or_n n | Xor_n n -> n
  | Not | Buf -> 1

let output_count = function
  | Fa | Ha -> 2
  | C42 | C53 | C63 | C73 -> 3
  | And_n _ | Or_n _ | Xor_n _ | Not | Buf -> 1

let is_counter = function
  | C42 | C53 | C63 | C73 -> true
  | Fa | Ha | And_n _ | Or_n _ | Xor_n _ | Not | Buf -> false

let name = function
  | Fa -> "FA"
  | Ha -> "HA"
  | C42 -> "C42"
  | C53 -> "C53"
  | C63 -> "C63"
  | C73 -> "C73"
  | And_n n -> Printf.sprintf "AND%d" n
  | Or_n n -> Printf.sprintf "OR%d" n
  | Xor_n n -> Printf.sprintf "XOR%d" n
  | Not -> "NOT"
  | Buf -> "BUF"

let pp ppf k = Fmt.string ppf (name k)

(* The eight fixed kinds take 0-7; an [n]-input gate takes [8 + 3n] plus
   0/1/2 for AND/OR/XOR. *)
let code = function
  | Fa -> 0
  | Ha -> 1
  | C42 -> 2
  | C53 -> 3
  | C63 -> 4
  | C73 -> 5
  | Not -> 6
  | Buf -> 7
  | (And_n n | Or_n n | Xor_n n) when n < 0 ->
    invalid_arg "Cell_kind.code: negative gate width"
  | And_n n -> 8 + (3 * n)
  | Or_n n -> 9 + (3 * n)
  | Xor_n n -> 10 + (3 * n)

let decode c =
  match c with
  | 0 -> Fa
  | 1 -> Ha
  | 2 -> C42
  | 3 -> C53
  | 4 -> C63
  | 5 -> C73
  | 6 -> Not
  | 7 -> Buf
  | c when c < 0 -> invalid_arg "Cell_kind.of_code: negative code"
  | c -> (
    let n = (c - 8) / 3 in
    match (c - 8) mod 3 with 0 -> And_n n | 1 -> Or_n n | _ -> Xor_n n)

(* gates of up to 64 inputs *)
let decoded = Array.init (8 + (3 * 65)) decode

let[@inline] of_code c =
  if c >= 0 && c < Array.length decoded then Array.unsafe_get decoded c
  else decode c
