(** Canonical-signed-digit recoding of integer coefficients.

    A coefficient c multiplying a partial product is realized as shifted
    copies of the product, one per non-zero digit of c; CSD minimizes the
    number of such copies (digits are in {-1, 0, +1} with no two adjacent
    non-zeros), so it minimizes the addends entering the matrix.  Plain
    {!binary} expansion is kept as an ablation baseline. *)

type digit = { sign : int (** +1 or -1 *); weight : int }

(** CSD digits of any integer (including negatives), weight-ascending. *)
val recode : int -> digit list

(** Plain base-2 digits of |n| carrying n's sign, weight-ascending.
    [min_int], whose magnitude 2^62 is no int, gives the one digit
    -2^62. *)
val binary : int -> digit list

val value : digit list -> int
val nonzero_count : digit list -> int

(** True iff no two digits have adjacent weights (holds for {!recode}). *)
val is_canonical : digit list -> bool

val pp : digit list Fmt.t
