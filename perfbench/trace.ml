(* In-memory span recorder for traced runs.  Each thread owns one
   [ctx]; spans carry a name, start, end, parent and request id, and
   are written out once, when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

type ctx = {
  tid : int;
  mutable spans : span list;
  mutable next : int;
  mutable parent : int;
  mutable req : int;
}

let create tid = { tid; spans = []; next = 0; parent = -1; req = -1 }

let span ctx name f =
  let id = ctx.next in
  ctx.next <- id + 1;
  let parent = ctx.parent in
  ctx.parent <- id;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      ctx.parent <- parent;
      ctx.spans <- { id; parent; req = ctx.req; name; t0; t1 } :: ctx.spans)
    f

(* Requests repeat, so spans group by occurrence, not population index. *)
let occurrences = Atomic.make 0

(* A request's root span, named after the request; every span opened
   inside it shares its id. *)
let request ctx ~label f =
  ctx.req <- Atomic.fetch_and_add occurrences 1;
  span ctx label f

(* Per request: the root span's wall time and every inner span's self
   time (its duration minus what its children cover). *)
type breakdown = { wall : float; self : (string * float) list }

let breakdowns ctx =
  let spans = List.rev ctx.spans in
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
          +. (s.t1 -. s.t0)))
    spans;
  let self (s : span) =
    (s.t1 -. s.t0)
    -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
  in
  let by_req = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      let wall, acc =
        Option.value ~default:(0.0, []) (Hashtbl.find_opt by_req s.req)
      in
      if s.parent < 0 then Hashtbl.replace by_req s.req (s.t1 -. s.t0, acc)
      else Hashtbl.replace by_req s.req (wall, (s.name, self s) :: acc))
    spans;
  Hashtbl.fold (fun _ (wall, self) acc -> { wall; self } :: acc) by_req []

(* Self time of the spans called [names], summed per request; requests
   that opened none of them are skipped. *)
let per_request bds names =
  List.filter_map
    (fun b ->
      match List.filter (fun (n, _) -> List.mem n names) b.self with
      | [] -> None
      | xs -> Some (List.fold_left (fun acc (_, t) -> acc +. t) 0.0 xs))
    bds

(* Share of request wall time that the layer spans account for. *)
let coverage bds =
  let sum f = List.fold_left (fun acc b -> acc +. f b) 0.0 bds in
  sum (fun b -> List.fold_left (fun a (_, t) -> a +. t) 0.0 b.self)
  /. sum (fun b -> b.wall)

(* One CSV line per span, times in microseconds from [origin]. *)
let write ~path ~origin ctxs =
  let oc = open_out path in
  output_string oc "thread,request,id,parent,name,start_us,dur_us\n";
  List.iter
    (fun ctx ->
      List.iter
        (fun (s : span) ->
          Printf.fprintf oc "%d,%d,%d,%d,%S,%.1f,%.1f\n" ctx.tid s.req s.id
            s.parent s.name
            ((s.t0 -. origin) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6))
        (List.rev ctx.spans))
    ctxs;
  close_out oc
