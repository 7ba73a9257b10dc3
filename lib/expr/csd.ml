type digit = { sign : int; weight : int }

let recode n =
  (* Standard CSD construction: scan from LSB; at an odd residue choose the
     digit +/-1 that makes the remainder divisible by 4, guaranteeing no two
     adjacent non-zero digits. *)
  let rec go n w acc =
    if n = 0 then List.rev acc
    else if n land 1 = 0 then go (n asr 1) (w + 1) acc
    else
      let d = if n land 3 = 1 then 1 else -1 in
      go ((n - d) asr 1) (w + 1) ({ sign = d; weight = w } :: acc)
  in
  go n 0 []

let binary n =
  let sign = if n < 0 then -1 else 1 in
  (* [abs min_int] is [min_int]; shifting logically reads it as the
     unsigned magnitude 2^62, one digit whose value wraps back to n. *)
  let rec go n w acc =
    if n = 0 then List.rev acc
    else if n land 1 = 1 then go (n lsr 1) (w + 1) ({ sign; weight = w } :: acc)
    else go (n lsr 1) (w + 1) acc
  in
  go (abs n) 0 []

let value digits =
  List.fold_left (fun acc d -> acc + (d.sign * (1 lsl d.weight))) 0 digits

let nonzero_count = List.length

let is_canonical digits =
  (* digits come out weight-sorted; canonical iff no two adjacent weights *)
  let rec go = function
    | a :: (b :: _ as rest) -> b.weight > a.weight + 1 && go rest
    | [ _ ] | [] -> true
  in
  go digits

let pp_digit ppf d =
  Fmt.pf ppf "%c2^%d" (if d.sign >= 0 then '+' else '-') d.weight

let pp ppf digits = Fmt.(list ~sep:(any " ") pp_digit) ppf digits
