include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* xor-shift, multiply by an odd constant, xor-shift: a bijection on
     63-bit ints whose low bits (the bucket index) depend on every key
     bit. *)
  let hash k =
    let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)
