(* The binary min-heap that [Dp_core.Net_queue] replaced, kept verbatim
   as its reference: the two must pop the same nets under any
   interleaving of pushes and pops (see [Test_perf]).  Each net's keys
   are read once, when it enters the heap, and cached in float arrays;
   the order is [(k1, k2, net id)] under [Float.compare].  Not used
   outside the tests. *)

open Dp_netlist

type key = Dp_core.Net_queue.key = Zero | Arrival | Neg_abs_q

(* Slot [i] holds net [nets.(i)] with its cached keys [k1.(i)] and
   [k2.(i)]; the three arrays move together. *)
type t = {
  netlist : Netlist.t;
  key1 : key;
  key2 : key;
  mutable nets : int array;
  mutable k1 : float array;
  mutable k2 : float array;
  mutable len : int;
}

let length h = h.len

let set_key netlist key keys i net =
  keys.(i) <-
    (match key with
    | Zero -> 0.0
    | Arrival -> Netlist.arrival netlist net
    | Neg_abs_q -> -.Float.abs (Netlist.q netlist net))

(* Slot [i] orders strictly before slot [j]. *)
let less h i j =
  let c = Float.compare h.k1.(i) h.k1.(j) in
  if c <> 0 then c < 0
  else
    let c = Float.compare h.k2.(i) h.k2.(j) in
    if c <> 0 then c < 0 else h.nets.(i) < h.nets.(j)

let swap h i j =
  let n = h.nets.(i) and a = h.k1.(i) and b = h.k2.(i) in
  h.nets.(i) <- h.nets.(j);
  h.k1.(i) <- h.k1.(j);
  h.k2.(i) <- h.k2.(j);
  h.nets.(j) <- n;
  h.k1.(j) <- a;
  h.k2.(j) <- b

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less h i parent then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < h.len && less h l i then l else i in
  let smallest = if r < h.len && less h r smallest then r else smallest in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let grow h =
  let cap = 2 * Array.length h.nets in
  let nets = Array.make cap 0 and k1 = Array.make cap 0.0 in
  let k2 = Array.make cap 0.0 in
  Array.blit h.nets 0 nets 0 h.len;
  Array.blit h.k1 0 k1 0 h.len;
  Array.blit h.k2 0 k2 0 h.len;
  h.nets <- nets;
  h.k1 <- k1;
  h.k2 <- k2

(* Store [net] and its keys in the first free slot. *)
let append h net =
  if h.len = Array.length h.nets then grow h;
  let i = h.len in
  h.nets.(i) <- net;
  set_key h.netlist h.key1 h.k1 i net;
  set_key h.netlist h.key2 h.k2 i net;
  h.len <- i + 1

let push h net =
  append h net;
  sift_up h (h.len - 1)

let of_list ~k1 ~k2 netlist nets =
  (* The reducers never hold more nets than they start with. *)
  let cap = max 16 (List.length nets) in
  let h =
    {
      netlist;
      key1 = k1;
      key2 = k2;
      nets = Array.make cap 0;
      k1 = Array.make cap 0.0;
      k2 = Array.make cap 0.0;
      len = 0;
    }
  in
  List.iter (append h) nets;
  for i = (h.len / 2) - 1 downto 0 do
    sift_down h i
  done;
  h

let pop h =
  if h.len = 0 then invalid_arg "Net_heap.pop: empty";
  let top = h.nets.(0) in
  h.len <- h.len - 1;
  if h.len > 0 then begin
    swap h 0 h.len;
    sift_down h 0
  end;
  top

let drain h =
  let rec go acc = if h.len = 0 then List.rev acc else go (pop h :: acc) in
  go []
