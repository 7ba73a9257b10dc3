(* Per-layer metrics of a traced run, named after the lib/ modules. *)

open Util

(* A layer that did not run on this workload reads 0. *)
let or_zero x = if Float.is_finite x then x else 0.0
let med xs = or_zero (median xs)
let avg xs = or_zero (mean xs)
let span_ms bds names = or_zero (ms (median (Trace.per_request bds names)))

let library bds (ls : Compose.layers list) =
  let f field = List.filter Float.is_finite (List.map field ls) in
  [
    metric "expr.parse_ms" "ms" (span_ms bds [ "expr.parse"; "expr.env" ]);
    metric "cache.key_ms" "ms" (span_ms bds [ "cache.key" ]);
    metric "bitmatrix.lower_ms" "ms" (span_ms bds [ "bitmatrix.lower" ]);
    metric "bitmatrix.lower_alloc_mw" "Mword" (med (f (fun l -> l.lower_mw)));
    metric "bitmatrix.bits" "count" (med (f (fun l -> l.bits)));
    metric "bitmatrix.height" "count" (med (f (fun l -> l.height)));
    metric "core.reduce_ms" "ms" (span_ms bds [ "core.reduce" ]);
    metric "core.reduce_alloc_mw" "Mword" (med (f (fun l -> l.reduce_mw)));
    metric "core.cells" "count" (med (f (fun l -> l.cells)));
    metric "core.counters" "count" (med (f (fun l -> l.counters)));
    metric "core.stages" "count" (med (f (fun l -> l.stages)));
    metric "core.tree_arrival_ns" "ns" (avg (f (fun l -> l.tree_arrival)));
    metric "core.tree_switching" "activity" (avg (f (fun l -> l.tree_switching)));
    metric "baselines.build_ms" "ms" (span_ms bds [ "baselines.build" ]);
    metric "adders.cpa_ms" "ms" (span_ms bds [ "adders.cpa" ]);
    metric "adders.cpa_delay_ns" "ns" (avg (f (fun l -> l.cpa_delay)));
    metric "netlist.stats_ms" "ms" (span_ms bds [ "netlist.stats" ]);
    metric "netlist.verilog_ms" "ms" (span_ms bds [ "netlist.verilog" ]);
    metric "netlist.verilog_bytes" "B" (med (f (fun l -> l.verilog_bytes)));
    metric "netlist.nets" "count" (med (f (fun l -> l.nets)));
    metric "power.switching_ms" "ms" (span_ms bds [ "power.switching" ]);
    metric "gc.minor_mw" "Mword" (avg (f (fun l -> l.minor_mw)));
    metric "gc.major_collections" "count" (avg (f (fun l -> l.major)));
  ]

(* Counter deltas over a window of the [stats] op. *)
let delta ~before ~after path = Served.num after path -. Served.num before path

(* [local idx] is the in-process [Serve.run] time of a request, in
   seconds, as the benchmark measured it; a miss's round trip minus it is
   the cost of being served. *)
let served ~(clients : Served.client list) ~before ~after ~local =
  let bds = List.concat_map (fun (c : Served.client) -> Trace.breakdowns c.ctx) clients in
  let d = delta ~before ~after in
  let hits = d [ "cache"; "hits" ] +. d [ "cache"; "disk_hits" ] in
  let lookups = hits +. d [ "cache"; "misses" ] in
  let rpc f = List.concat_map f clients in
  let misses = rpc (fun c -> c.rpc_miss) in
  let hop =
    List.filter_map (fun (idx, t) -> Option.map (fun l -> t -. l) (local idx)) misses
  in
  [
    metric "cache.hit_frac" "ratio" (if lookups > 0.0 then hits /. lookups else 0.0);
    metric "cache.evictions" "count" (d [ "cache"; "evictions" ]);
    metric "cache.stores" "count" (d [ "cache"; "stores" ]);
    metric "cache.disk_hits" "count" (d [ "cache"; "disk_hits" ]);
    metric "client.connect_ms" "ms" (span_ms bds [ "client.connect" ]);
    metric "client.encode_ms" "ms" (span_ms bds [ "client.encode" ]);
    metric "client.decode_ms" "ms" (span_ms bds [ "client.decode" ]);
    metric "server.rpc_hit_ms" "ms" (or_zero (ms (median (rpc (fun c -> c.rpc_hit)))));
    metric "server.rpc_miss_ms" "ms" (or_zero (ms (median (List.map snd misses))));
    metric "server.within_1ms_frac" "ratio" (Served.served_within_1ms ~before ~after);
    metric "server.hop_ms" "ms" (or_zero (ms (median hop)));
    metric "server.errors" "count" (d [ "errors" ]);
  ]

let router ~before ~after ~hop_ms =
  let d = delta ~before ~after in
  [
    metric "router.routed" "count" (d [ "router"; "routed" ]);
    metric "router.forward_errors" "count" (d [ "router"; "forward_errors" ]);
    metric "router.failovers" "count" (d [ "router"; "failovers" ]);
    metric "journal.appended" "count" (d [ "router"; "journal"; "appended" ]);
    metric "router.hop_ms" "ms" hop_ms;
  ]

let trace ~coverage ~overhead =
  [
    metric "trace.coverage" "ratio" coverage;
    metric "trace.overhead_frac" "ratio" overhead;
  ]
