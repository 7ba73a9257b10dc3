(** Append-only write-ahead log of admitted synthesis requests.

    The journal is the router's durability layer: every admitted request
    is recorded before it is forwarded, and advanced to [Completed] once
    any shard answer (including a typed error envelope) has been
    produced.  After a router crash the next incarnation replays the
    journal: [Completed] entries are served byte-identically from the
    digest-keyed store, incomplete ones are re-dispatched to the home
    shard of their recorded digest — safe because request digests make
    synthesis idempotent.

    On-disk format: one record per line,

    {v <32-hex MD5 of payload> <payload JSON>\n v}

    where the payload is
    [{"seq":N,"state":"admitted"|"completed","digest":D,...}]
    ([params] rides on the admitted record).  A [dispatched] record,
    which logs written by earlier versions hold after each admission, is
    read as a good record and skipped.  A crash mid-append leaves a torn
    tail — a final line with no newline, or with a checksum mismatch.
    [open_] truncates the file at the first bad record and counts the
    lost bytes; everything before it is trusted, everything after is
    suspect and discarded.

    Compaction rewrites the file keeping only the admitted records of
    incomplete entries, then renames it into place atomically.  All
    operations are thread-safe. *)

type state =
  | Admitted  (** recorded; no answer produced yet *)
  | Completed  (** an answer (ok or typed error) was produced *)

type entry = {
  seq : int;
  digest : string;
  state : state;
  params : Json.t;  (** request params as recorded at admission *)
}

type stats = {
  appended : int;  (** records appended by this handle *)
  recovered : int;  (** entries read back when the handle was opened *)
  torn_bytes : int;  (** bytes truncated from a torn tail at open *)
  compactions : int;
}

type t

(** [open_ ~dir ()] opens (creating if needed) [dir/journal.log],
    scans it, truncates any torn tail, and loads surviving entries.
    [auto_compact_bytes] (default 1 MiB) compacts the log whenever an
    append pushes the file past that size.  [log] receives one-line
    notices (torn-tail truncation, compaction). *)
val open_ :
  ?auto_compact_bytes:int -> ?log:(string -> unit) -> dir:string -> unit -> t

val path : t -> string

(** Entries as recovered at [open_] time, in seq order — the replay
    work-list.  Unaffected by later appends. *)
val recovered : t -> entry list

(** Current in-memory view, in seq order.  Completed entries are
    dropped at the next compaction. *)
val entries : t -> entry list

(** Entries not yet [Completed], in seq order. *)
val incomplete : t -> entry list

(** Record an admitted request; returns its journal sequence number. *)
val admit : t -> digest:string -> params:Json.t -> int

(** Record that [seq] produced an answer.  Idempotent; unknown sequence
    numbers are ignored. *)
val complete : t -> seq:int -> unit

(** Rewrite the log keeping only incomplete entries. *)
val compact : t -> unit

val stats : t -> stats
val close : t -> unit
