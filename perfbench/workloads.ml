(* The three workloads.  Each returns what the result line needs; the
   correctness checks (independent evaluator, byte-identical records,
   repeatable outputs) run outside the timed region. *)

open Util
module Serve = Dp_cache.Serve
module Env = Dp_expr.Env

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;
}

let setup_probes = 15

(* Equivalence of a result against [Dp_expr.Eval] on seeded random
   inputs, two's complement where the environment says so. *)
let equivalent ~trials (r : Gen.req) (expr, env, (o : Serve.outcome)) =
  let signed x = Env.mem x env && Env.is_signed x env in
  match
    Dp_sim.Equiv.check_random ~seed:r.idx ~signed ~trials o.result.netlist expr
      ~output:o.result.output ~width:o.width
  with
  | Ok () -> None
  | Error m ->
    Some (Fmt.str "%s: not equivalent: %a" r.label Dp_sim.Equiv.pp_mismatch m)

let qor (outs : Serve.outcome list) =
  let g f = geomean (List.map f outs) in
  [
    metric "qor_delay_ns" "ns" (g (fun o -> o.result.stats.delay));
    metric "qor_area" "area" (g (fun o -> o.result.stats.area));
    metric "qor_switching" "activity" (g (fun o -> o.result.total_switching));
  ]

(* Machine speed over the measured interval: it is cut into 1 s windows,
   and each window's speed is the calibration kernel's median time in it
   over its nominal time (the run's median where a window has no
   sample).  [cal] holds the calibration samples. *)
type speeds = { t0 : float; window : float; speed : float array }

let speeds ~t_start ~elapsed ~cal =
  let window = Float.min 1.0 elapsed in
  let n = max 1 (int_of_float (elapsed /. window)) in
  let samples = Array.make n [] in
  List.iter
    (fun (t, k) ->
      let i = int_of_float ((t -. t_start) /. window) in
      if i >= 0 && i < n then samples.(i) <- k :: samples.(i))
    cal;
  let overall = median (List.map snd cal) /. kernel_nominal_s in
  let speed =
    Array.map (function [] -> overall | ks -> median ks /. kernel_nominal_s) samples
  in
  { t0 = t_start; window; speed }

(* Each (completion time, latency) of [lat] inside the interval, divided
   by its window's speed. *)
let scaled sp lat =
  List.filter_map
    (fun (t, l) ->
      let i = int_of_float ((t -. sp.t0) /. sp.window) in
      if i >= 0 && i < Array.length sp.speed then Some (l /. sp.speed.(i)) else None)
    lat

(* Throughput and latency, scaled to the nominal machine speed.  [lat]
   holds (completion time, latency) of every completed request. *)
let latency_metrics ~t_start ~elapsed ~lat ~cal ~attempted ~failed =
  let sp = speeds ~t_start ~elapsed ~cal in
  let scaled = scaled sp lat in
  let q p = ms (quantile p scaled) in
  [
    metric "requests_per_s" "1/s"
      (float_of_int (List.length scaled)
      /. Array.fold_left (fun acc s -> acc +. (sp.window /. s)) 0.0 sp.speed);
    metric "latency_p50_ms" "ms" (q 0.50);
    metric "latency_p90_ms" "ms" (q 0.90);
    metric "latency_p99_ms" "ms" (q 0.99);
    metric "ok_frac" "ratio"
      (float_of_int (attempted - failed) /. float_of_int (max 1 attempted));
  ]

(* The figures that [latency_metrics] and [setup_s] scale, unscaled, and
   the speed factors that scaled them, so every run's correction can be
   checked from its notes.  A window factor that sits above the set-up
   factor run after run would mean that the workload's own load leaks
   into the normaliser. *)
let raw_notes ~elapsed ~lat ~cal ~setup ~setup_speed =
  let l = List.map snd lat in
  let q p = ms (quantile p l) in
  [
    Printf.sprintf
      "raw requests_per_s=%.6g latency_p50_ms=%.6g latency_p90_ms=%.6g \
       latency_p99_ms=%.6g setup_s=%.6g"
      (float_of_int (List.length l) /. elapsed)
      (q 0.50) (q 0.90) (q 0.99) setup;
    Printf.sprintf "speed setup=%.4f window=%.4f" setup_speed
      (median (List.map snd cal) /. kernel_nominal_s);
  ]

(* Run [f] with the calibration process beside it: its result and the
   machine speed meanwhile, as in [latency_metrics]. *)
let with_speed f =
  let c = start_calibration () in
  let r = f () in
  match stop_calibration c with
  | [] -> (r, 1.0)
  | cal -> (r, median (List.map snd cal) /. kernel_nominal_s)

(* MD5 over every distinct request's result record, in population
   order: equal across runs of one seed when synthesis is
   deterministic. *)
let fingerprint records =
  Digest.to_hex (Digest.string (String.concat "\n" records))

let trace_path workload seed =
  mkdir_p out_dir;
  Filename.concat out_dir (Printf.sprintf "trace-%s-%d.csv" workload seed)

(* The matrix heights a traced run saw, for the notes. *)
let height_note (layers : Compose.layers list) =
  match List.filter Float.is_finite (List.map (fun (l : Compose.layers) -> l.height) layers) with
  | [] -> []
  | hs ->
    [
      Printf.sprintf "matrix height %g-%g"
        (List.fold_left Float.min infinity hs)
        (List.fold_left Float.max neg_infinity hs);
    ]

(* ------------------------------------------------------------------ *)
(* Library workloads *)

(* The child side of a set-up probe: certify the counter library, answer
   the first request, report, exit. *)
let probe_child () =
  let r = Gen.first_request () in
  let t0 = now () in
  Dp_counters.Certify.ensure Compose.tech;
  let certify = now () -. t0 in
  match Compose.serve r with
  | Ok _ -> Printf.printf "ready %.6f\n%!" (ms certify)
  | Error d ->
    prerr_endline (Dp_diag.Diag.to_string d);
    exit 3

(* Launch this executable as a fresh library caller, [setup_probes]
   times: (seconds until it answered, its certificate time in ms). *)
let library_setup () =
  List.init setup_probes (fun _ ->
      let rd, wr = Unix.pipe ~cloexec:true () in
      let t0 = now () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--probe" |]
          Unix.stdin wr Unix.stderr
      in
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let line = try input_line ic with End_of_file -> "" in
      let t1 = now () in
      close_in ic;
      reap pid;
      match Scanf.sscanf_opt line "ready %f" Fun.id with
      | Some certify_ms -> (t1 -. t0, certify_ms)
      | None -> failwith "set-up probe did not answer")

type seen = {
  vlen : int;
  md5 : string;
  stats : Dp_netlist.Stats.t;
  switching : float * float;
}

let seen_of (o : Serve.outcome) =
  {
    vlen = String.length o.verilog;
    md5 = Digest.string o.verilog;
    stats = o.result.stats;
    switching = (o.result.tree_switching, o.result.total_switching);
  }

let run_library ~workload ~seed ~seconds ~trace ~trials reqs =
  let setups, speed = with_speed library_setup in
  Dp_counters.Certify.ensure Compose.tech;
  let n = Array.length reqs in
  let problems = ref [] in
  let problem m = if List.length !problems < 5 then problems := m :: !problems in
  let attempted = ref 0 and failed = ref 0 in
  if not trace then begin
    let seen = Array.make n None in
    let lat = ref [] in
    let speed_samples = sampler () in
    let t_start = now () in
    let until = t_start +. seconds in
    let i = ref 0 in
    while now () < until do
      let r = reqs.(!i mod n) in
      incr i;
      sample speed_samples;
      let t0 = now () in
      let res = Compose.serve r in
      let t1 = now () in
      incr attempted;
      match res with
      | Error d ->
        incr failed;
        problem (r.label ^ ": " ^ Dp_diag.Diag.to_string d)
      | Ok (_, _, o) -> (
        lat := (t1, t1 -. t0) :: !lat;
        match seen.(r.idx) with
        | None -> seen.(r.idx) <- Some (seen_of o)
        | Some s ->
          if
            s.vlen <> String.length o.verilog
            || s.stats <> o.result.stats
            || s.switching <> (o.result.tree_switching, o.result.total_switching)
          then problem (r.label ^ ": output differs between repeats"))
    done;
    let elapsed = now () -. t_start in
    let cal = speed_samples.samples in
    let peak = Option.value ~default:0.0 (vm_hwm_mb None) in
    (* Outside the timed region each distinct request is synthesized
       again, must repeat its timed output exactly, and must agree with
       the independent evaluator. *)
    let outs = ref [] and records = ref [] in
    Array.iteri
      (fun idx s ->
        match s with
        | None -> ()
        | Some (s : seen) -> (
          let r = reqs.(idx) in
          match Compose.serve r with
          | Error d -> problem (r.label ^ ": " ^ Dp_diag.Diag.to_string d)
          | Ok ((_, _, o) as res) ->
            if seen_of o <> s then problem (r.label ^ ": output changed between runs");
            Option.iter problem (equivalent ~trials r res);
            outs := o :: !outs;
            records := Compose.record r o :: !records))
      seen;
    {
      correct = !problems = [];
      attempted = !attempted;
      failed = !failed;
      metrics =
        latency_metrics ~t_start ~elapsed ~lat:!lat ~cal ~attempted:!attempted
          ~failed:!failed
        @ [
            metric "peak_mem_mb" "MiB" peak;
            metric "setup_s" "s" (median (List.map fst setups) /. speed);
          ]
        @ qor !outs;
      notes =
        List.rev !problems
        @ [
            Printf.sprintf "determinism %s distinct=%d requests=%d"
              (fingerprint (List.rev !records))
              (List.length !outs) !attempted;
          ]
        @ raw_notes ~elapsed ~lat:!lat ~cal
            ~setup:(median (List.map fst setups))
            ~setup_speed:speed;
    }
  end
  else begin
    (* Each request runs twice, back to back: untraced through Serve.run,
       then composed from layer calls with spans.  The two must agree
       byte for byte; their time ratio is the tracing overhead. *)
    let expected = Array.make n None in
    let plain_times = Array.make n [] in
    let ctx = Trace.create 0 in
    let layers = ref [] in
    let untraced = ref 0.0 and traced = ref 0.0 in
    let origin = now () in
    let until = origin +. seconds in
    let i = ref 0 in
    while now () < until do
      let r = reqs.(!i mod n) in
      incr i;
      incr attempted;
      let t0 = now () in
      let plain = Compose.serve r in
      let t1 = now () in
      let res = Trace.request ctx ~label:r.label (fun () -> Compose.composed ctx r) in
      let t2 = now () in
      match (plain, res) with
      | Ok ((_, _, o) as p), Ok (c, l) ->
        untraced := !untraced +. (t1 -. t0);
        traced := !traced +. (t2 -. t1);
        plain_times.(r.idx) <- (t1 -. t0) :: plain_times.(r.idx);
        layers := l :: !layers;
        let record = Compose.record r o in
        if record <> Compose.record r c || not (String.equal o.verilog c.verilog)
        then problem (r.label ^ ": composed pipeline differs from Serve.run");
        if expected.(r.idx) = None then begin
          Option.iter problem (equivalent ~trials r p);
          expected.(r.idx) <- Some record
        end
      | Error d, _ | _, Error d ->
        incr failed;
        problem (r.label ^ ": " ^ Dp_diag.Diag.to_string d)
    done;
    Trace.write ~path:(trace_path workload seed) ~origin [ ctx ];
    let bds = Trace.breakdowns ctx in
    let sample = List.filteri (fun i _ -> i < 24) (Array.to_list reqs) in
    let p = Served.probe ~sample ~expect:(fun idx -> expected.(idx)) in
    List.iter problem p.pclient.problems;
    let local idx = match plain_times.(idx) with [] -> None | ts -> Some (median ts) in
    {
      correct = !problems = [];
      attempted = !attempted;
      failed = !failed;
      metrics =
        Layers.library bds !layers
        @ [ metric "counters.certify_ms" "ms" (median (List.map snd setups) /. speed) ]
        @ Layers.served ~clients:[ p.pclient ] ~before:p.p_before ~after:p.p_after ~local
        @ Layers.router ~before:p.p_before ~after:p.p_after ~hop_ms:p.router_hop_ms
        @ Layers.trace ~coverage:(Trace.coverage bds)
            ~overhead:((!traced /. !untraced) -. 1.0);
      notes = List.rev !problems @ height_note !layers;
    }
  end

(* ------------------------------------------------------------------ *)
(* The served workload *)

(* Requests each client sends before the measured window, so the store
   is warm when measuring starts. *)
let warmup_per_client = 750

let run_served ~workload ~seed ~seconds ~trace ~trials =
  let pop, excluded = Gen.serve_population ~seed in
  let z = Gen.zipf pop in
  let setups = ref [] in
  let rec start i =
    let s, t = Served.launch ~tag:(Printf.sprintf "s%d" i) Served.Single in
    setups := t :: !setups;
    if i + 1 < setup_probes then begin
      Served.stop s;
      start (i + 1)
    end
    else s
  in
  let server, speed = with_speed (fun () -> start 0) in
  let problems = ref [] in
  let problem m = if List.length !problems < 5 then problems := m :: !problems in
  let clients = [ Served.client ~seed 0; Served.client ~seed 1 ] in
  let body ~traced (c : Served.client) =
    Served.one c ~socket:server.socket ~traced pop.(Gen.sample z c.rng)
  in
  let before, after, t_start, elapsed, cal, peak, untraced_lat =
    Fun.protect
      ~finally:(fun () -> Served.stop server)
      (fun () ->
        Served.drive clients
          ~stop:(fun c -> c.attempted >= warmup_per_client)
          (body ~traced:false);
        List.iter Served.reset clients;
        let before = Served.stats server in
        let calibration = start_calibration () in
        let t_start = now () in
        let until = t_start +. seconds in
        let untraced_lat =
          if trace then begin
            let mid = t_start +. (seconds /. 2.0) in
            Served.drive clients ~stop:(fun _ -> now () >= mid) (body ~traced:false);
            let l = List.concat_map (fun (c : Served.client) -> c.lat) clients in
            List.iter Served.reset clients;
            Served.drive clients ~stop:(fun _ -> now () >= until) (body ~traced:true);
            l
          end
          else begin
            Served.drive clients ~stop:(fun _ -> now () >= until) (body ~traced:false);
            []
          end
        in
        let elapsed = now () -. t_start in
        let cal = stop_calibration calibration in
        let after = Served.stats server in
        let peak = Option.value ~default:0.0 (vm_hwm_mb (Some server.pid)) in
        (before, after, t_start, elapsed, cal, peak, untraced_lat))
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 clients in
  let attempted = sum (fun (c : Served.client) -> c.attempted) in
  let failed = sum (fun (c : Served.client) -> c.failed) in
  let lat = List.concat_map (fun (c : Served.client) -> c.lat) clients in
  List.iter (fun (c : Served.client) -> List.iter problem c.problems) clients;
  let served = Hashtbl.create 1024 in
  List.iter
    (fun (c : Served.client) ->
      Hashtbl.iter
        (fun idx record ->
          match Hashtbl.find_opt served idx with
          | Some r when r <> record ->
            problem (pop.(idx).label ^ ": clients got different records")
          | _ -> Hashtbl.replace served idx record)
        c.first)
    clients;
  (* Every request of the population is synthesized locally and checked
     against the evaluator, and every served record must equal the local
     one byte for byte.  QoR is taken over the whole population, so it
     depends on the seed only, not on which requests a run reached. *)
  let ctx = Trace.create 2 in
  let layers = ref [] and outs = ref [] and records = ref [] in
  let local = Array.make (Array.length pop) None in
  let local_time = Array.make (Array.length pop) None in
  Array.iter
    (fun (r : Gen.req) ->
      let t0 = now () in
      let res = Compose.serve r in
      local_time.(r.idx) <- Some (now () -. t0);
      match res with
      | Error d -> problem (r.label ^ ": " ^ Dp_diag.Diag.to_string d)
      | Ok ((_, _, o) as res) -> (
        let record = Compose.record r o in
        (match Hashtbl.find_opt served r.idx with
        | Some s when s <> record ->
          problem (r.label ^ ": served record differs from the local one")
        | _ -> ());
        Option.iter problem (equivalent ~trials r res);
        local.(r.idx) <- Some record;
        outs := o :: !outs;
        records := record :: !records;
        if trace then
          match Trace.request ctx ~label:r.label (fun () -> Compose.composed ctx r) with
          | Ok (c, l) ->
            layers := l :: !layers;
            if Compose.record r c <> record || not (String.equal c.verilog o.verilog)
            then problem (r.label ^ ": composed pipeline differs from Serve.run")
          | Error d -> problem (r.label ^ ": " ^ Dp_diag.Diag.to_string d)))
    pop;
  let hit_frac =
    let d = Layers.delta ~before ~after in
    let hits = d [ "cache"; "hits" ] +. d [ "cache"; "disk_hits" ] in
    hits /. (hits +. d [ "cache"; "misses" ])
  in
  (* The requests left out of the population are a known wrong answer:
     checked again on every run, they do not count against it. *)
  let known_wrong =
    Array.to_list excluded
    |> List.map (fun (r : Gen.req) ->
           let verdict =
             match Compose.serve r with
             | Error d -> "fails: " ^ Dp_diag.Diag.to_string d
             | Ok res -> (
               match equivalent ~trials r res with
               | Some _ -> "known wrong answer, still not equivalent"
               | None -> "now equivalent; the exclusion in gen.ml can go")
           in
           Printf.sprintf "excluded: %s (%s)" r.label verdict)
  in
  let info =
    [
      Printf.sprintf "determinism %s distinct=%d"
        (fingerprint (List.rev !records))
        (List.length !records);
      Printf.sprintf "served distinct=%d of %d, hit_frac=%.3f"
        (Hashtbl.length served) (Array.length pop) hit_frac;
    ]
    @ known_wrong
  in
  if not trace then
    {
      correct = !problems = [];
      attempted;
      failed;
      metrics =
        latency_metrics ~t_start ~elapsed ~lat ~cal ~attempted ~failed
        @ [
            metric "peak_mem_mb" "MiB" peak;
            metric "setup_s" "s" (median !setups /. speed);
          ]
        @ qor !outs;
      notes =
        List.rev !problems @ info
        @ raw_notes ~elapsed ~lat ~cal ~setup:(median !setups) ~setup_speed:speed;
    }
  else begin
    Trace.write ~path:(trace_path workload seed) ~origin:t_start
      (ctx :: List.map (fun (c : Served.client) -> c.ctx) clients);
    let probes, cspeed = with_speed library_setup in
    let certify = median (List.map snd probes) /. cspeed in
    let sample =
      List.filteri (fun i _ -> i < 24)
        (List.sort compare (List.of_seq (Hashtbl.to_seq_keys served)))
      |> List.map (fun i -> pop.(i))
    in
    let p = Served.probe ~sample ~expect:(fun idx -> local.(idx)) in
    List.iter problem p.pclient.problems;
    let bds = Trace.breakdowns ctx in
    (* The two halves of the window can run at different machine speeds,
       so both are scaled before they are compared. *)
    let sp = speeds ~t_start ~elapsed ~cal in
    let scaled_mean l = mean (scaled sp l) in
    {
      correct = !problems = [];
      attempted;
      failed;
      metrics =
        Layers.library bds !layers
        @ [ metric "counters.certify_ms" "ms" certify ]
        @ Layers.served ~clients ~before ~after ~local:(fun idx -> local_time.(idx))
        @ Layers.router ~before:p.p_before ~after:p.p_after ~hop_ms:p.router_hop_ms
        @ Layers.trace ~coverage:(Trace.coverage bds)
            ~overhead:((scaled_mean lat /. scaled_mean untraced_lat) -. 1.0);
      notes = List.rev !problems @ info @ height_note !layers;
    }
  end
