open Dp_netlist

(* Radix-4 (modified) Booth recoding of an UNSIGNED multiplier Y: digits
   d_k = y(2k-1) + y(2k) - 2*y(2k+1) in {-2,-1,0,1,2}, with y(-1) = 0 and
   bits beyond the top read as 0, for k = 0 .. ceil((m+1)/2) - 1 (one extra
   digit group absorbs the virtual sign 0 of the unsigned operand, so the
   last digit is never negative).

   Each digit contributes (-1)^neg * B_k * 4^k where B_k selects 0, X or 2X
   (an (n+1)-bit vector).  The two's-complement identity
       -B = ~B + 1 - 2^(n+1)      (over n+1 bits)
   turns a conditionally negative row into unconditional addends:

       (B_k XOR neg)  bits at weights 2k .. 2k+n
       neg            at weight 2k          (the "+1")
       NOT neg        at weight 2k+n+1      (from -neg*2^(n+1) =
                                             (~neg)*2^(n+1) - 2^(n+1))
   plus a compile-time constant correction -2^(2k+n+1), which the caller
   accumulates like every other constant.  For the top digit neg is the
   constant 0, so the builder folds the whole tail away. *)

let digit_count m = (m + 2) / 2

let selector_signals netlist multiplier k =
  let m = Array.length multiplier in
  let bit i = if i < 0 || i >= m then Netlist.const netlist false else multiplier.(i) in
  let y_lo = bit ((2 * k) - 1) and y_mid = bit (2 * k) and y_hi = bit ((2 * k) + 1) in
  (* one: |d| = 1  <=>  y_mid <> y_lo;  two: |d| = 2; neg: d < 0 *)
  let one = Netlist.xor2 netlist y_mid y_lo in
  let all_set = Netlist.and_n netlist [ y_hi; y_mid; y_lo ] in
  let none_set =
    Netlist.and_n netlist
      [
        Netlist.not_ netlist y_hi;
        Netlist.not_ netlist y_mid;
        Netlist.not_ netlist y_lo;
      ]
  in
  (* |d| = 2 when the three bits are 100 (d = -2) or 011 (d = +2) *)
  let two =
    Netlist.and_n netlist
      [ Netlist.not_ netlist one;
        Netlist.not_ netlist all_set;
        Netlist.not_ netlist none_set ]
  in
  let neg = y_hi in
  one, two, neg

(* [lower_product] adds the addends of multiplicand*multiplier (unsigned x
   unsigned; optionally negated) to [matrix] at [shift], and returns the
   constant correction that must be added to the caller's constant
   accumulator. *)
let lower_product ?(negate = false) ?(shift = 0) netlist matrix ~multiplicand
    ~multiplier =
  let n = Array.length multiplicand in
  let m = Array.length multiplier in
  if n = 0 || m = 0 then invalid_arg "Booth.lower_product: empty operand";
  let in_range w = match Matrix.max_width matrix with
    | Some cap -> w < cap
    | None -> true
  in
  let correction = ref 0 in
  for k = 0 to digit_count m - 1 do
    let one, two, neg = selector_signals netlist multiplier k in
    let neg = if negate then Netlist.not_ netlist neg else neg in
    let base = shift + (2 * k) in
    (* row bits B_k(i) = (x_i & one) | (x_{i-1} & two), i = 0 .. n *)
    for i = 0 to n do
      let w = base + i in
      if in_range w then begin
        let b =
          if i = 0 then Netlist.and2 netlist multiplicand.(0) one
          else if i = n then Netlist.and2 netlist multiplicand.(n - 1) two
          else
            let by_one = Netlist.and2 netlist multiplicand.(i) one in
            let by_two = Netlist.and2 netlist multiplicand.(i - 1) two in
            Netlist.or2 netlist by_two by_one
        in
        Matrix.add matrix ~weight:w (Netlist.xor2 netlist b neg)
      end
    done;
    (* the "+neg" of the two's complement; constant neg folds entirely *)
    if in_range base then begin
      match Netlist.const_value netlist neg with
      | Some false -> ()
      | Some true -> correction := !correction + (1 lsl base)
      | None -> Matrix.add matrix ~weight:base neg
    end;
    (* -neg * 2^(base+n+1) = ~neg * 2^(base+n+1) - 2^(base+n+1); for a
       constant-0 neg the addend and the correction cancel exactly *)
    let top = base + n + 1 in
    if in_range top then begin
      match Netlist.const_value netlist neg with
      | Some false -> ()
      | Some true -> correction := !correction - (1 lsl top)
      | None ->
        Matrix.add matrix ~weight:top (Netlist.not_ netlist neg);
        correction := !correction - (1 lsl top)
    end
  done;
  !correction
