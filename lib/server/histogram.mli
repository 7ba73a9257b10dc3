(** The [latency_ms] histogram of a server's [stats]: request latencies
    counted in log-spaced millisecond buckets (1, 2, 5, … 5000 ms), the
    last bucket unbounded.  One type for the server that counts and the
    router that sums its shards' histograms.  Not thread-safe: callers
    hold their own lock. *)

type t

(** All buckets empty. *)
val create : unit -> t

(** Count one request of the given latency in milliseconds. *)
val observe : t -> float -> unit

(** [[{"le_ms": 1, "count": n}, …, {"le_ms": null, "count": n}]]. *)
val to_json : t -> Json.t

(** The histogram a {!to_json} list holds; [None] when [j] is not a list
    of this build's bucket count. *)
val of_json : Json.t -> t option

(** The bucket-by-bucket sum. *)
val add : t -> t -> t
