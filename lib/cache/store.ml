type entry = {
  fingerprint : string;
  result : Dp_flow.Synth.result;
  verilog : string;
}

(* Doubly-linked LRU node; [head] is most recently used. *)
type node = {
  digest : string;
  entry : entry;
  mutable prev : node option;
  mutable next : node option;
}

type stats = {
  hits : int;
  disk_hits : int;
  misses : int;
  evictions : int;
  corrupt : int;
  stores : int;
  entries : int;
}

type t = {
  capacity : int;
  dir : string option;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutable size : int;
  mutable hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable corrupt : int;
  mutable stores : int;
  lock : Mutex.t;
}

let create ?(capacity = 256) ?dir () =
  if capacity < 1 then invalid_arg "Store.create: capacity must be >= 1";
  (match dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  {
    capacity;
    dir;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    size = 0;
    hits = 0;
    disk_hits = 0;
    misses = 0;
    evictions = 0;
    corrupt = 0;
    stores = 0;
    lock = Mutex.create ();
  }

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    hits = t.hits;
    disk_hits = t.disk_hits;
    misses = t.misses;
    evictions = t.evictions;
    corrupt = t.corrupt;
    stores = t.stores;
    entries = t.size;
  }

(* ------------------------------------------------------------------ *)
(* Intrusive LRU list (all under [lock]) *)

let detach t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let touch t n =
  detach t n;
  push_front t n

let insert t digest entry =
  (match Hashtbl.find_opt t.table digest with
  | Some old ->
    detach t old;
    Hashtbl.remove t.table digest;
    t.size <- t.size - 1
  | None -> ());
  let n = { digest; entry; prev = None; next = None } in
  Hashtbl.replace t.table digest n;
  push_front t n;
  t.size <- t.size + 1;
  while t.size > t.capacity do
    match t.tail with
    | None -> t.size <- t.capacity (* unreachable *)
    | Some lru ->
      detach t lru;
      Hashtbl.remove t.table lru.digest;
      t.size <- t.size - 1;
      t.evictions <- t.evictions + 1
  done

(* ------------------------------------------------------------------ *)
(* On-disk content-addressed entries.

   File layout: a magic line, the hex MD5 of the marshalled body, then
   the body itself.  The checksum rejects truncation and bit-rot before
   [Marshal.from_string] ever runs on the bytes; the fingerprint match
   rejects digest collisions and misfiled entries; the lint sweep
   rejects structurally corrupt netlists that survive both.  Every
   failure mode degrades to a cache miss. *)

(* Bump the version whenever a type reachable from [entry] changes
   (e.g. [Netlist.t]'s fields): the checksum only guards the bytes, and
   [Marshal.from_string] would read an older layout as the new type. *)
let magic = "dpsyn-cache/4\n"

let entry_path dir digest = Filename.concat dir (digest ^ ".dpc")

(* Cross-process discipline for the shared on-disk store.  Shard
   processes share one cache directory, so two writers may race on the
   same digest.  Two independent defenses:

   - every writer stages into a tmp name unique to (pid, counter), so
     concurrent writers can never interleave bytes in one file;
   - an advisory per-digest lock file serializes the write+publish
     critical section across processes, so renames are ordered and a
     writer never publishes over a concurrent writer mid-flight.

   Either alone keeps entries untorn (rename is atomic); together they
   also keep the store's write ordering sane under contention.  The lock
   is strictly best-effort: if the lock file cannot be opened or locked
   the write proceeds unlocked — the unique tmp + atomic rename still
   guarantees readers only ever see whole, checksummed entries. *)

let with_digest_lock dir digest f =
  let lock_path = Filename.concat dir (digest ^ ".lock") in
  match Unix.openfile lock_path [ O_WRONLY; O_CREAT; O_CLOEXEC ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    let locked = try Unix.lockf fd Unix.F_LOCK 0; true with _ -> false in
    Fun.protect
      ~finally:(fun () ->
        (if locked then try Unix.lockf fd Unix.F_ULOCK 0 with _ -> ());
        try Unix.close fd with _ -> ())
      f

(* Remove an entry and its lock file inside the digest's critical
   section (unlinking a held lock file is fine), so that no write is
   mid-publish and no stale lock is left; [true] when the entry file was
   removed. *)
let remove_entry dir digest =
  with_digest_lock dir digest (fun () ->
      let removed =
        match Sys.remove (entry_path dir digest) with
        | () -> true
        | exception Sys_error _ -> false
      in
      (try Sys.remove (Filename.concat dir (digest ^ ".lock"))
       with Sys_error _ -> ());
      removed)

let tmp_counter = Atomic.make 0

let write_disk t digest entry =
  match t.dir with
  | None -> ()
  | Some dir -> (
    let body = Marshal.to_string entry [] in
    let path = entry_path dir digest in
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_counter 1)
    in
    try
      with_digest_lock dir digest @@ fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc magic;
          output_string oc (Digest.to_hex (Digest.string body));
          output_char oc '\n';
          output_string oc body);
      (* Atomic publish: a reader sees the old entry, the new entry, or
         no entry — never a half-written one. *)
      Sys.rename tmp path
    with Sys_error _ | Unix.Unix_error _ -> ( try Sys.remove tmp with _ -> ()))

let lint_ok netlist =
  match Dp_verify.Lint.significant (Dp_verify.Lint.run netlist) with
  | [] -> true
  | _ :: _ -> false
  | exception _ -> false

(* The entry a file holds, if its magic line and checksum hold; the read
   path and [fsck] both judge a file through this.  Raises on an
   unreadable file or a body [Marshal] rejects. *)
let decode path =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let mlen = String.length magic in
  if
    String.length raw < mlen + 33
    || not (String.equal (String.sub raw 0 mlen) magic)
  then None
  else
    let sum = String.sub raw mlen 32 in
    let body = String.sub raw (mlen + 33) (String.length raw - mlen - 33) in
    if not (String.equal sum (Digest.to_hex (Digest.string body))) then None
    else Some (Marshal.from_string body 0 : entry)

(* What the disk holds for a digest.  A corrupt (or misfiled) entry is
   removed so that it cannot shadow a future good write, and reported as
   [`Corrupt] only by the lookup that removed it, so that two lookups
   racing on one bad file count it once. *)
let read_disk dir digest ~fingerprint =
  let path = entry_path dir digest in
  if not (Sys.file_exists path) then `Absent
  else
    match decode path with
    | Some entry
      when String.equal entry.fingerprint fingerprint
           && lint_ok entry.result.netlist ->
      `Entry entry
    | _ | (exception _) -> if remove_entry dir digest then `Corrupt else `Absent

(* ------------------------------------------------------------------ *)

let find t key =
  let digest = Key.digest key in
  let fingerprint = Key.fingerprint key in
  (* [memory] and [settle] run under [t.lock]. *)
  let memory () =
    match Hashtbl.find_opt t.table digest with
    | Some n when String.equal n.entry.fingerprint fingerprint ->
      touch t n;
      t.hits <- t.hits + 1;
      Some n.entry
    | _ -> None
  in
  let settle found =
    (match found with `Corrupt -> t.corrupt <- t.corrupt + 1 | _ -> ());
    (* Memory again: another thread may have inserted the entry while
       this one read the disk. *)
    match (memory (), found) with
    | (Some _ as hit), _ -> hit
    | None, `Entry entry ->
      t.disk_hits <- t.disk_hits + 1;
      insert t digest entry;
      Some entry
    | None, (`Corrupt | `Absent) ->
      t.misses <- t.misses + 1;
      None
  in
  match t.dir with
  | None -> Mutex.protect t.lock (fun () -> settle `Absent)
  | Some dir -> (
    match Mutex.protect t.lock memory with
    | Some _ as hit -> hit
    | None ->
      (* The file read, checksum, unmarshal and lint run outside the
         lock: a large entry takes tens of milliseconds, and no lookup
         in memory should wait for it. *)
      let found = read_disk dir digest ~fingerprint in
      Mutex.protect t.lock (fun () -> settle found))

let add t key entry =
  let digest = Key.digest key in
  (Mutex.protect t.lock @@ fun () ->
   insert t digest entry;
   t.stores <- t.stores + 1);
  (* Disk write happens outside the in-memory lock: it can block on the
     cross-process digest lock, and stalling every same-process lookup
     behind another shard's disk write would defeat sharding. *)
  write_disk t digest entry

(* ------------------------------------------------------------------ *)
(* Offline store verification (the [dpsyn fsck] subcommand).

   Walks a store directory without a live [t]: every [.dpc] entry is
   re-checked exactly as the read path would check it (magic, checksum,
   unmarshal, lint) plus one check the read path cannot do — that the
   file's name matches the MD5 of the fingerprint {e inside} it, so a
   misfiled entry is caught even when no request ever asks for that
   digest.  Leftover [.tmp.*] staging files older than [tmp_age_s] are
   orphans (a crashed writer); [.lock] files whose entry is gone are
   stale.  With [prune] set, every finding is removed. *)

type fsck_report = {
  scanned : int;
  valid : int;
  fsck_corrupt : int;
  misfiled : int;
  orphaned_tmp : int;
  stale_locks : int;
  pruned : int;
}

let fsck ?(prune = false) ?(tmp_age_s = 60.0) ~dir () =
  let now = Unix.gettimeofday () in
  let names =
    match Sys.readdir dir with
    | names -> Array.to_list names
    | exception Sys_error _ -> []
  in
  let scanned = ref 0
  and valid = ref 0
  and corrupt = ref 0
  and misfiled = ref 0
  and orphaned_tmp = ref 0
  and stale_locks = ref 0
  and pruned = ref 0 in
  let remove path =
    match Sys.remove path with
    | () -> incr pruned
    | exception Sys_error _ -> ()
  in
  let is_hex32 s =
    String.length s = 32
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
         s
  in
  let check_entry name =
    incr scanned;
    let path = Filename.concat dir name in
    let digest = Filename.chop_suffix name ".dpc" in
    let verdict =
      match decode path with
      | Some entry
        when not
               (String.equal digest
                  (Digest.to_hex (Digest.string entry.fingerprint))) ->
        `Misfiled
      | Some entry when lint_ok entry.result.netlist -> `Valid
      | _ | (exception _) -> `Corrupt
    in
    (* [remove_entry] also drops the companion lock file, or the prune
       itself would manufacture a stale lock. *)
    let prune_entry () = if remove_entry dir digest then incr pruned in
    match verdict with
    | `Valid -> incr valid
    | `Corrupt ->
      incr corrupt;
      if prune then prune_entry ()
    | `Misfiled ->
      incr misfiled;
      if prune then prune_entry ()
  in
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Filename.check_suffix name ".dpc" then check_entry name
      else if
        (* A staging file looks like <digest>.dpc.tmp.<pid>.<n>; anything
           with ".tmp." in it that has sat around past the grace window
           was left by a crashed writer — no live writer stages that
           long. *)
        let rec has_tmp i =
          i + 5 <= String.length name
          && (String.equal (String.sub name i 5) ".tmp." || has_tmp (i + 1))
        in
        has_tmp 0
      then begin
        match Unix.stat path with
        | { Unix.st_mtime; _ } when now -. st_mtime > tmp_age_s ->
          incr orphaned_tmp;
          if prune then remove path
        | _ | (exception Unix.Unix_error _) -> ()
      end
      else if Filename.check_suffix name ".lock" then begin
        let digest = Filename.chop_suffix name ".lock" in
        if
          is_hex32 digest
          && not (Sys.file_exists (Filename.concat dir (digest ^ ".dpc")))
        then begin
          incr stale_locks;
          if prune then remove path
        end
      end)
    names;
  {
    scanned = !scanned;
    valid = !valid;
    fsck_corrupt = !corrupt;
    misfiled = !misfiled;
    orphaned_tmp = !orphaned_tmp;
    stale_locks = !stale_locks;
    pruned = !pruned;
  }

let mem_digests t =
  Mutex.protect t.lock @@ fun () ->
  let rec go acc = function
    | None -> List.rev acc
    | Some n -> go (n.digest :: acc) n.next
  in
  go [] t.head

let dir t = t.dir

let invalidate_memory t =
  Mutex.protect t.lock @@ fun () ->
  Hashtbl.reset t.table;
  t.head <- None;
  t.tail <- None;
  t.size <- 0
