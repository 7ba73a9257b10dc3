open Dp_netlist

type key = Zero | Arrival | Neg_abs_q

(* The column, sorted once, is [run.(next ..)]; the sums pushed since are
   the FIFO [sums.(first .. last - 1)], also ascending. *)
type t = {
  netlist : Netlist.t;
  key1 : key;
  key2 : key;
  run : int array;
  mutable next : int;
  mutable sums : int array;
  mutable first : int;
  mutable last : int;
}

let[@inline] by_key netlist key a b =
  match key with
  | Zero -> 0
  | Arrival -> Netlist.compare_arrival netlist a b
  | Neg_abs_q -> Netlist.compare_abs_q netlist b a

let[@inline] compare q a b =
  let c = by_key q.netlist q.key1 a b in
  if c <> 0 then c
  else
    let c = by_key q.netlist q.key2 a b in
    if c <> 0 then c else Int.compare a b

let[@inline] before q a b = compare q a b < 0

let length q = Array.length q.run - q.next + (q.last - q.first)

(* Merge sort of [run] under [before], Array.stable_sort's scheme with
   the comparison inlined: [merge] joins [src1.(i1 ..)] ([n1] nets) and
   [src2.(i2 ..)] ([n2]) into [dst.(d ..)]; [sort_into] sorts
   [src.(s ..)] ([len] nets) into [dst.(d ..)]. *)
let merge q src1 i1 n1 src2 i2 n2 dst d =
  let e1 = i1 + n1 and e2 = i2 + n2 in
  let i1 = ref i1 and i2 = ref i2 and d = ref d in
  while !i1 < e1 && !i2 < e2 do
    let a = Array.unsafe_get src1 !i1 and b = Array.unsafe_get src2 !i2 in
    if before q b a then begin
      Array.unsafe_set dst !d b;
      incr i2
    end
    else begin
      Array.unsafe_set dst !d a;
      incr i1
    end;
    incr d
  done;
  if !i1 < e1 then Array.blit src1 !i1 dst !d (e1 - !i1)
  else Array.blit src2 !i2 dst !d (e2 - !i2)

let insertion_sort_into q src s dst d len =
  for i = 0 to len - 1 do
    let net = Array.unsafe_get src (s + i) in
    let j = ref (d + i - 1) in
    while !j >= d && before q net (Array.unsafe_get dst !j) do
      Array.unsafe_set dst (!j + 1) (Array.unsafe_get dst !j);
      decr j
    done;
    Array.unsafe_set dst (!j + 1) net
  done

let rec sort_into q src s dst d len =
  if len <= 5 then insertion_sort_into q src s dst d len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sort_into q src (s + l1) dst (d + l1) l2;
    sort_into q src s src (s + l2) l1;
    merge q src (s + l2) l1 dst (d + l1) l2 dst d
  end

(* Sorts [a] in place with [tmp], of at least half its length rounded
   up, as scratch. *)
let sort q a tmp =
  let len = Array.length a in
  if len <= 5 then insertion_sort_into q a 0 a 0 len
  else begin
    let l1 = len / 2 in
    let l2 = len - l1 in
    sort_into q a l1 tmp 0 l2;
    sort_into q a 0 a l2 l1;
    merge q a l2 l1 tmp 0 l2 a 0
  end

let of_list ~k1 ~k2 netlist nets =
  let run = Array.of_list nets in
  let q =
    {
      netlist;
      key1 = k1;
      key2 = k2;
      run;
      next = 0;
      (* The sort's scratch, then the FIFO.  SC_T, SC_LP and the GPC fill
         push one sum per two nets they retire, so it never grows for
         them. *)
      sums = Array.make (max 8 ((Array.length run + 1) / 2)) 0;
      first = 0;
      last = 0;
    }
  in
  sort q run q.sums;
  q

(* Make room at the FIFO's end: slide it to the front when at most half
   full, else double it. *)
let make_room q =
  let live = q.last - q.first in
  let sums =
    if 2 * live <= Array.length q.sums then q.sums
    else Array.make (2 * Array.length q.sums) 0
  in
  Array.blit q.sums q.first sums 0 live;
  q.sums <- sums;
  q.first <- 0;
  q.last <- live

let push q net =
  if q.last = Array.length q.sums then make_room q;
  let sums = q.sums in
  let i = ref q.last in
  while !i > q.first && before q net (Array.unsafe_get sums (!i - 1)) do
    Array.unsafe_set sums !i (Array.unsafe_get sums (!i - 1));
    decr i
  done;
  Array.unsafe_set sums !i net;
  q.last <- q.last + 1

let pop_run q =
  let net = Array.unsafe_get q.run q.next in
  q.next <- q.next + 1;
  net

let pop_sum q =
  let net = Array.unsafe_get q.sums q.first in
  q.first <- q.first + 1;
  net

let pop q =
  if q.next < Array.length q.run then
    if q.first < q.last
       && before q (Array.unsafe_get q.sums q.first)
            (Array.unsafe_get q.run q.next)
    then pop_sum q
    else pop_run q
  else if q.first < q.last then pop_sum q
  else invalid_arg "Net_queue.pop: empty"

(* Merge the two queues from their ends, so the list is built in one
   pass. *)
let drain q =
  let acc = ref [] in
  let i = ref (Array.length q.run - 1) and j = ref (q.last - 1) in
  while !i >= q.next || !j >= q.first do
    if !j < q.first || (!i >= q.next && before q q.sums.(!j) q.run.(!i))
    then begin
      acc := q.run.(!i) :: !acc;
      decr i
    end
    else begin
      acc := q.sums.(!j) :: !acc;
      decr j
    end
  done;
  q.next <- Array.length q.run;
  q.first <- 0;
  q.last <- 0;
  !acc
