(** Content-addressed netlist cache: an in-memory LRU in front of an
    optional on-disk store.

    Entries are addressed by {!Key.digest} and carry the full synthesis
    result plus its Verilog emission, so a hit reproduces a fresh
    [Synth.run] byte-for-byte.  Disk entries are checksummed, matched
    against the request's full {!Key.fingerprint} (a digest collision or
    a misfiled entry is never served), and lint-checked with
    [Dp_verify.Lint] on load — {e every} corruption mode degrades to a
    cache miss, never to a wrong netlist.  All operations are
    thread-safe. *)

type entry = {
  fingerprint : string;  (** the {!Key.fingerprint} the entry was stored under *)
  result : Dp_flow.Synth.result;
  verilog : string;  (** [Verilog.emit result.netlist], captured at store time *)
}

type stats = {
  hits : int;  (** in-memory LRU hits *)
  disk_hits : int;  (** misses in memory served from disk (then promoted) *)
  misses : int;  (** full misses — the caller synthesized *)
  evictions : int;  (** LRU evictions from memory (disk copies survive) *)
  corrupt : int;  (** disk entries rejected by checksum/fingerprint/lint *)
  stores : int;  (** successful {!add} calls *)
  entries : int;  (** current in-memory entry count *)
}

type t

(** [create ~capacity ~dir ()] — [capacity] bounds the in-memory LRU
    (default 256 entries); [dir] (created if missing) enables the
    on-disk store.  @raise Invalid_argument on a capacity < 1. *)
val create : ?capacity:int -> ?dir:string -> unit -> t

(** Lookup; promotes disk hits into memory and updates LRU order.  The
    disk read and its checks run outside the store's lock, so a lookup
    that hits memory never waits for another thread's disk read. *)
val find : t -> Key.t -> entry option

(** Insert (memory, and disk when enabled; disk write failures are
    silently degraded — the cache is best-effort by design).  Disk
    writes are safe across processes sharing one directory: each writer
    stages into a unique temp file, takes an advisory per-digest lock,
    and publishes with an atomic rename — concurrent writers on the same
    digest leave exactly one whole, checksummed entry, and a reader
    racing a writer sees the old entry, the new entry, or none. *)
val add : t -> Key.t -> entry -> unit

val stats : t -> stats

(** {!fsck}'s findings over one store directory. *)
type fsck_report = {
  scanned : int;  (** [.dpc] entries examined *)
  valid : int;  (** entries that pass every check *)
  fsck_corrupt : int;
      (** bad magic, checksum mismatch, unmarshal failure, or a netlist
          that fails the lint sweep — exactly the read path's rejects *)
  misfiled : int;
      (** internally whole entries filed under the wrong name: the
          filename digest is not the MD5 of the fingerprint inside *)
  orphaned_tmp : int;
      (** [.tmp.*] staging files older than the grace window — leftovers
          of a crashed writer *)
  stale_locks : int;  (** [.lock] files whose entry no longer exists *)
  pruned : int;  (** files removed (0 unless [prune]) *)
}

(** [fsck ~dir ()] — offline integrity walk of a store directory:
    re-verify every entry exactly as the read path would (magic,
    checksum, unmarshal, lint) {e plus} the name-vs-fingerprint check
    only an offline scan can do, and find crashed-writer leftovers.
    [prune] removes everything found wrong (entry removals take the
    per-digest advisory lock, so fsck is safe against a live fleet);
    [tmp_age_s] (default 60 s) is the grace window below which a [.tmp.*]
    file may still be a write in flight. *)
val fsck : ?prune:bool -> ?tmp_age_s:float -> dir:string -> unit -> fsck_report

(** In-memory digests, most recently used first (test hook). *)
val mem_digests : t -> string list

(** The on-disk store directory, when one was configured. *)
val dir : t -> string option

(** Drop every in-memory entry (disk entries survive), forcing the next
    lookups through the disk path and its corruption defenses.  A chaos /
    test hook; harmless under concurrent use — evicted lookups degrade
    to disk hits or misses. *)
val invalidate_memory : t -> unit
