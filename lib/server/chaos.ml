type fault =
  | Worker_panic
  | Slow_worker
  | Truncate_response
  | Corrupt_cache
  | Corrupt_result
  | Mem_squeeze
  | Kill_shard
  | Hang_shard
  | Delay_response
  | Dup_response
  | Drop_mid_line
  | Kill_router

let process_faults =
  [ Worker_panic; Slow_worker; Truncate_response; Corrupt_cache; Corrupt_result ]

(* Opt-in, like the shard classes: adding a fault to [process_faults]
   would shift every seeded schedule's [List.nth] picks. *)
let mem_faults = [ Mem_squeeze ]
let shard_faults = [ Kill_shard; Hang_shard ]
let net_faults = [ Delay_response; Dup_response; Drop_mid_line ]
let router_faults = [ Kill_router ]

let faults ~mem ~net =
  process_faults @ (if mem then mem_faults else []) @ if net then net_faults else []

let all = process_faults @ mem_faults @ shard_faults @ net_faults @ router_faults

let fault_name = function
  | Worker_panic -> "worker_panic"
  | Slow_worker -> "slow_worker"
  | Truncate_response -> "truncate_response"
  | Corrupt_cache -> "corrupt_cache"
  | Corrupt_result -> "corrupt_result"
  | Mem_squeeze -> "mem_squeeze"
  | Kill_shard -> "kill_shard"
  | Hang_shard -> "hang_shard"
  | Delay_response -> "delay_response"
  | Dup_response -> "dup_response"
  | Drop_mid_line -> "drop_mid_line"
  | Kill_router -> "kill_router"

exception Panic

type config = { seed : int; every : int; slow_s : float; faults : fault list }

(* Shard faults are opt-in: the default keeps the process-level classes
   only, so single-process chaos schedules (and their seeded tests) are
   unchanged by the sharded faults' existence. *)
let default_config = { seed = 0; every = 7; slow_s = 0.05; faults = process_faults }

type t = {
  config : config;
  rng : Random.State.t;
  lock : Mutex.t;
  mutable ticks : int;
  counts : (fault, int) Hashtbl.t;
}

let create config =
  {
    config;
    rng = Random.State.make [| config.seed; 0x5eed |];
    lock = Mutex.create ();
    ticks = 0;
    counts = Hashtbl.create 8;
  }

let slow_s t = t.config.slow_s

let site_faults = function
  | `Worker ->
    [ Worker_panic; Slow_worker; Corrupt_cache; Corrupt_result; Mem_squeeze ]
  | `Respond -> Truncate_response :: net_faults
  | `Shard -> shard_faults
  | `Router -> router_faults

(* One global tick counter across all sites: every [every]-th tick picks
   a fault uniformly from the configured classes, and the pick only
   lands if that class is meaningful at the calling site — so the
   per-site injection schedule stays deterministic for a fixed seed and
   request order, while no site starves the others. *)
let tick t ~site =
  if t.config.every <= 0 then None
  else
    Mutex.protect t.lock @@ fun () ->
    t.ticks <- t.ticks + 1;
    if t.ticks mod t.config.every <> 0 then None
    else
      match t.config.faults with
      | [] -> None
      | faults ->
        let f = List.nth faults (Random.State.int t.rng (List.length faults)) in
        if not (List.mem f (site_faults site)) then None
        else begin
          Hashtbl.replace t.counts f
            (1 + Option.value (Hashtbl.find_opt t.counts f) ~default:0);
          Some f
        end

(* Seeded uniform pick in [0, n) — used by the sharded soak to choose a
   victim shard without consulting the wall clock. *)
let pick t n =
  if n <= 0 then invalid_arg "Chaos.pick: n must be >= 1";
  Mutex.protect t.lock @@ fun () -> Random.State.int t.rng n

let injected t =
  Mutex.protect t.lock @@ fun () ->
  List.filter_map
    (fun f ->
      match Hashtbl.find_opt t.counts f with
      | Some n -> Some (fault_name f, n)
      | None -> None)
    all

let corrupt_cache_entry t store =
  match Dp_cache.Store.dir store with
  | None -> ()
  | Some dir -> (
    match Sys.readdir dir with
    | exception _ -> ()
    | files ->
      let entries =
        List.sort String.compare
          (List.filter
             (fun f -> Filename.check_suffix f ".dpc")
             (Array.to_list files))
      in
      (match entries with
      | [] -> ()
      | entries ->
        let pick =
          Mutex.protect t.lock @@ fun () ->
          List.nth entries (Random.State.int t.rng (List.length entries))
        in
        let path = Filename.concat dir pick in
        (* Flip one byte past the magic line so the checksum (or the
           Marshal decode) trips, exercising the corrupt-entry-as-miss
           path rather than a missing-file miss. *)
        (try
           let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
           Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
           let size = (Unix.fstat fd).Unix.st_size in
           if size > 0 then begin
             let pos = size / 2 in
             ignore (Unix.lseek fd pos Unix.SEEK_SET);
             let b = Bytes.create 1 in
             if Unix.read fd b 0 1 = 1 then begin
               Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
               ignore (Unix.lseek fd pos Unix.SEEK_SET);
               ignore (Unix.write fd b 0 1)
             end
           end
         with _ -> ());
        Dp_cache.Store.invalidate_memory store))

(* Deep copy via a Marshal round-trip (the store already Marshals these
   netlists to disk, so the representation is safe), then mutate the
   copy — the shared cache entry must never be poisoned by chaos. *)
let corrupt_netlist t netlist =
  let copy : Dp_netlist.Netlist.t =
    Marshal.from_string (Marshal.to_string netlist []) 0
  in
  let seed, mutation =
    Mutex.protect t.lock @@ fun () ->
    let muts = Dp_verify.Inject.all in
    ( Random.State.int t.rng 0x3fffffff,
      List.nth muts (Random.State.int t.rng (List.length muts)) )
  in
  match Dp_verify.Inject.apply ~seed copy mutation with
  | Some _ -> Some copy
  | None -> None
