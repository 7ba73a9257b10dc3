(** Hashtable over int keys with a mixing hash, for keys that pack
    several small ids into one int (net pairs, sorted supports).

    [Hashtbl.hash] is a poor fit for such keys: on an int it folds the
    high 32-bit half onto the low one, so packed pairs [(a lsl 32) lor b]
    collide wholesale.  This table multiplies and xor-shifts instead, so
    every bit of the key reaches the bucket index. *)

include Hashtbl.S with type key = int
