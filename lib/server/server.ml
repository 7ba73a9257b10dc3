(* The synthesis service: a worker pool fed through a bounded queue,
   behind the socket front it shares with the router ([Listener]).

   Backpressure is structural: the queue blocks producers once
   [queue_depth] jobs are waiting, so a flood of batch requests slows the
   producing connections down instead of growing memory without bound.
   Upstream of the queue sits admission control: a request whose addend
   matrix provably cannot fit the budget is refused at the door
   (DP-SRV-TOOBIG), and a process over its memory watermark sheds new
   work (DP-SRV-OVERLOAD) while in-flight jobs drain.

   Each admitted job runs under a per-request [Dp_gov.Gov] governor
   (deadline, cell budget, heap watermark — the deadline tightened
   further by the request's own [deadline_ms]); a tripped limit is an
   ordinary typed DP-CANCEL/DP-BUDGET error envelope, and the worker
   survives to take the next job.

   Above the budget sits the supervision boundary: an exception that
   escapes a job (a genuine bug — [Synth.run_res] already converts
   expected failures to diagnostics) is delivered to the waiting client
   as DP-SRV-CRASH, dumped as a [.repro] into the crash corpus, and
   counted by the [Supervisor]; the worker backs off and takes the next
   job, and a crash storm opens the circuit breaker at the admission
   edge (DP-SRV-OVERLOAD) while queued work drains. *)

module Diag = Dp_diag.Diag

(* ------------------------------------------------------------------ *)
(* Bounded queue *)

module Bqueue = struct
  type 'a t = {
    q : 'a Queue.t;
    cap : int;
    m : Mutex.t;
    not_full : Condition.t;
    not_empty : Condition.t;
    mutable closed : bool;
  }

  exception Closed

  let create cap =
    {
      q = Queue.create ();
      cap;
      m = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      closed = false;
    }

  (* Blocks while the queue is at capacity — the backpressure edge. *)
  let push t x =
    Mutex.protect t.m @@ fun () ->
    while (not t.closed) && Queue.length t.q >= t.cap do
      Condition.wait t.not_full t.m
    done;
    if t.closed then raise Closed;
    Queue.add x t.q;
    Condition.signal t.not_empty

  (* [None] once the queue is closed and drained. *)
  let pop t =
    Mutex.protect t.m @@ fun () ->
    while (not t.closed) && Queue.is_empty t.q do
      Condition.wait t.not_empty t.m
    done;
    if Queue.is_empty t.q then None
    else begin
      let x = Queue.take t.q in
      Condition.signal t.not_full;
      Some x
    end

  let close t =
    Mutex.protect t.m @@ fun () ->
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full
end

(* ------------------------------------------------------------------ *)

type config = {
  socket_path : string;
  store : Dp_cache.Store.t option;
  workers : int;
  queue_depth : int;
  budget : Dp_fuzz.Budget.t;
  mem_watermark_words : int option;
  tech : Dp_tech.Tech.t;
  log : string -> unit;
  supervisor : Supervisor.policy;
  crash_dir : string option;
  chaos : Chaos.config option;
  guard_responses : bool;
  handle_signals : bool;
}

type job = {
  params : Protocol.synth_params;
  enqueued_at : float;
  deadline : float option;  (* absolute, derived from params.deadline_ms *)
  mutable trial : bool;  (* the half-open breaker's single probe *)
  mutable delivered : bool;  (* under the slot mutex; crash-path guard *)
  deliver : (Dp_cache.Serve.outcome, Diag.t) result -> unit;
}

type t = {
  config : config;
  queue : job Bqueue.t;
  supervisor : Supervisor.t;
  chaos : Chaos.t option;
  listener : Listener.t;
  mutable worker_threads : Thread.t list;
  state_lock : Mutex.t;
  (* counters, all under [state_lock]; the listener counts connections
     and the malformed lines it answered itself *)
  mutable served : int;  (** synth results delivered (incl. batch elements) *)
  mutable errors : int;  (** error envelopes/elements delivered *)
  mutable deadline_expired : int;  (** jobs failed fast in the queue *)
  mutable crash_dumps : int;  (** [.repro] files written *)
  mutable guard_rejects : int;  (** corrupted results caught by the guard *)
  mutable cancelled : int;  (** governor aborts (DP-CANCEL*, DP-BUDGET-MEM) *)
  mutable toobig_rejects : int;  (** admission: static row estimate too high *)
  mutable mem_sheds : int;  (** admission: over the memory watermark *)
  latency : Histogram.t;
}

let locked t f = Mutex.protect t.state_lock f

(* ------------------------------------------------------------------ *)
(* Job execution (worker side) *)

(* Request-level failures come back as [Error]; anything else that
   escapes is a genuine bug ([Synth.run_res] already converts expected
   exceptions) and belongs to the supervision boundary in
   [worker_loop].

   The request runs under its own per-thread ambient [Dp_gov.Gov]
   governor, built from the configured budget and the client's absolute
   [deadline] (so time spent queueing counts): each worker enforces its
   own deadline/cell/memory limits, and a tripped limit lands at a
   cooperative checkpoint between well-formed pipeline steps, so the
   cache never sees a torn entry and the worker is reused, not
   restarted.  [squeeze] (the chaos [Mem_squeeze] fault) runs the
   request under a one-word watermark so the memory-abort path is
   exercised end to end. *)
let execute t ?deadline ?(squeeze = false) (p : Protocol.synth_params) =
  match Protocol.serve_request ~tech:t.config.tech p with
  | Error d -> Error d
  | Ok r -> (
    let budget = t.config.budget in
    let gov =
      Dp_fuzz.Budget.governor ?deadline
        ?max_heap_words:
          (if squeeze then Some 1 else t.config.mem_watermark_words)
        budget
    in
    match
      Dp_gov.Gov.with_ambient gov (fun () ->
          (* Entry poll: even a pure cache hit observes an
             already-expired deadline or the squeezed watermark. *)
          Dp_gov.Gov.poll_now gov;
          Dp_cache.Serve.run ?store:t.config.store r)
    with
    | Error d -> Error d
    | exception Diag.E d -> Error d
    | Ok o ->
      Result.map
        (fun () -> o)
        (Dp_fuzz.Budget.check_cells budget o.result.netlist))

(* Lint outgoing netlists so a corrupted result (chaos, cache rot, or a
   real lowering bug) becomes a typed error envelope instead of a wrong
   answer on the wire. *)
let guard_outcome t (o : Dp_cache.Serve.outcome) =
  match Dp_verify.Lint.significant (Dp_verify.Lint.run o.result.netlist) with
  | [] -> Ok o
  | f :: _ as fs ->
    locked t (fun () -> t.guard_rejects <- t.guard_rejects + 1);
    Error
      (Diag.v ~code:"DP-SRV-CORRUPT" ~subsystem:"server"
         ~context:
           [
             ("findings", string_of_int (List.length fs));
             ("first", Fmt.str "%a" Dp_verify.Lint.pp_finding f);
           ]
         "result failed the response integrity guard; refusing to serve it")

let deliver_and_count t job r =
  let ms = (Unix.gettimeofday () -. job.enqueued_at) *. 1000.0 in
  locked t (fun () ->
      Histogram.observe t.latency ms;
      match r with
      | Ok _ -> t.served <- t.served + 1
      | Error (d : Diag.t) ->
        t.errors <- t.errors + 1;
        if Dp_gov.Gov.is_cancel_code d.code then
          t.cancelled <- t.cancelled + 1);
  job.deliver r

(* The request as a fuzz [Case] (uniform attributes — element 0 stands
   for the bit-level arrays), at the resolved width.  Shared by the
   admission precheck (row estimation) and the crash-dump writer. *)
let case_of_params (p : Protocol.synth_params) =
  let attr a d = if Array.length a > 0 then a.(0) else d in
  let vars =
    List.map
      (fun (v : Protocol.var_spec) ->
        Dp_fuzz.Case.make_var ~signed:v.vsigned ~arrival:(attr v.varrival 0.0)
          ~prob:(attr v.vprob 0.5) v.vname ~width:v.vwidth)
      p.vars
  in
  let width =
    match p.width with
    | Some w -> w
    | None -> (
      match Protocol.env_of_params p with
      | Ok env -> Dp_expr.Range.natural_width env p.expr
      | Error _ -> 8)
  in
  let width = min 62 (max 1 width) in
  Dp_fuzz.Case.single ~vars p.expr ~width

(* A crash reproducer in the fuzzer's corpus format, so [dpsyn replay]
   re-runs the exact job that took the worker down. *)
let crash_entry (p : Protocol.synth_params) exn_text =
  Dp_fuzz.Corpus.entry ~strategy:p.strategy ~adder:p.adder
    ~diag_code:"DP-SRV-CRASH"
    ~comment:(Printf.sprintf "worker crash: %s" exn_text)
    (case_of_params p)

(* Admission control, upstream of the queue and the circuit breaker:
   refuse work the server can already see it should not start.  The
   static matrix-height estimate catches a request whose addend matrix
   cannot fit the configured row budget — a permanent property of the
   request (DP-SRV-TOOBIG, not retryable), cheaper to refuse at the
   door than to enqueue, synthesize and abort mid-loop.  The heap
   watermark sheds {e new} load while this process is over its memory
   ceiling (DP-SRV-OVERLOAD, retryable on another shard or later);
   already-admitted jobs keep running under their governors. *)
let admit_request t (p : Protocol.synth_params) =
  let b = t.config.budget in
  let static =
    if b.Dp_fuzz.Budget.max_rows <= 0 then Ok ()
    else
      (* A malformed request (e.g. unbound variables) has no estimate;
         admit it so the worker produces its typed DP-ENV/DP-PROTO error
         rather than crashing the connection handler here. *)
      try Dp_fuzz.Budget.check_static b (case_of_params p) with _ -> Ok ()
  in
  match static with
  | Error (d : Diag.t) ->
    locked t (fun () -> t.toobig_rejects <- t.toobig_rejects + 1);
    Error
      (Diag.v ~code:"DP-SRV-TOOBIG" ~subsystem:"server" ~context:d.context
         "request rejected at admission: estimated addend-matrix height \
          exceeds this server's row budget")
  | Ok () -> (
    match t.config.mem_watermark_words with
    | Some watermark ->
      let heap = (Gc.quick_stat ()).Gc.heap_words in
      if heap > watermark then begin
        locked t (fun () -> t.mem_sheds <- t.mem_sheds + 1);
        Error
          (Diag.v ~code:"DP-SRV-OVERLOAD" ~subsystem:"server"
             ~context:
               [
                 ("reason", "memory");
                 ("heap_words", string_of_int heap);
                 ("max_heap_words", string_of_int watermark);
               ]
             "over the memory watermark; shedding new work while in-flight \
              jobs drain")
      end
      else Ok ()
    | None -> Ok ())

let handle_crash t job exn =
  let exn_text = Printexc.to_string exn in
  let repro =
    match t.config.crash_dir with
    | None -> None
    | Some dir -> (
      try Some (Dp_fuzz.Corpus.save ~dir (crash_entry job.params exn_text))
      with _ -> None)
  in
  (match repro with
  | Some _ -> locked t (fun () -> t.crash_dumps <- t.crash_dumps + 1)
  | None -> ());
  let d =
    Diag.v ~code:"DP-SRV-CRASH" ~subsystem:"server"
      ~context:
        (("exception", exn_text)
        :: (match repro with Some p -> [ ("repro", p) ] | None -> []))
      "worker crashed while serving this request"
  in
  deliver_and_count t job (Error d);
  let backoff = Supervisor.record_crash t.supervisor ~trial:job.trial in
  t.config.log
    (Printf.sprintf "worker crash (%s)%s; restarting after %.3fs" exn_text
       (match repro with Some p -> " repro " ^ p | None -> "")
       backoff);
  Thread.delay backoff

(* One job, inside the supervision boundary.  Any exception escaping
   this function is a worker crash. *)
let process t job =
  let now = Unix.gettimeofday () in
  match job.deadline with
  | Some d when now > d ->
    (* Fail fast: the client's budget elapsed while the job sat in the
       queue; synthesizing would produce a result nobody is waiting
       for, while making every later deadline worse. *)
    locked t (fun () -> t.deadline_expired <- t.deadline_expired + 1);
    deliver_and_count t job
      (Error
         (Diag.v ~code:"DP-SRV-DEADLINE" ~subsystem:"server"
            ~context:
              [ ("queue_wait_ms", Fmt.str "%.1f" ((now -. job.enqueued_at) *. 1000.0)) ]
            "deadline expired before the request could start"));
    Supervisor.record_success t.supervisor ~trial:job.trial
  | _ ->
    let corrupt_result = ref false in
    let squeeze = ref false in
    (match t.chaos with
    | None -> ()
    | Some c -> (
      match Chaos.tick c ~site:`Worker with
      | None -> ()
      | Some Chaos.Worker_panic -> raise Chaos.Panic
      | Some Chaos.Slow_worker -> Thread.delay (Chaos.slow_s c)
      | Some Chaos.Corrupt_cache ->
        Option.iter (Chaos.corrupt_cache_entry c) t.config.store
      | Some Chaos.Corrupt_result -> corrupt_result := true
      | Some Chaos.Mem_squeeze -> squeeze := true
      (* response-, shard- and router-level faults are other sites'
         business *)
      | Some
          ( Chaos.Truncate_response | Chaos.Kill_shard | Chaos.Hang_shard
          | Chaos.Delay_response | Chaos.Dup_response | Chaos.Drop_mid_line
          | Chaos.Kill_router ) ->
        ()));
    let r = execute t ?deadline:job.deadline ~squeeze:!squeeze job.params in
    let r =
      match (r, !corrupt_result, t.chaos) with
      | Ok o, true, Some c -> (
        (* Mutate a deep copy — the cache's entry stays pristine; the
           response guard below must catch this before the wire. *)
        match Chaos.corrupt_netlist c o.result.netlist with
        | Some n ->
          Ok
            {
              o with
              Dp_cache.Serve.result = { o.result with Dp_flow.Synth.netlist = n };
            }
        | None -> r)
      | _ -> r
    in
    let guard_enabled = t.config.guard_responses || t.chaos <> None in
    let r =
      match r with Ok o when guard_enabled -> guard_outcome t o | r -> r
    in
    deliver_and_count t job r;
    Supervisor.record_success t.supervisor ~trial:job.trial

let worker_loop t =
  let rec go () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some job ->
      (try process t job with exn -> handle_crash t job exn);
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Enqueue [jobs] and block until every one has delivered. *)

let run_jobs t params_list =
  let n = List.length params_list in
  let slots = Array.make n None in
  let remaining = ref n in
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let jobs =
    List.mapi
      (fun i p ->
        let rec job =
          {
            params = p;
            enqueued_at = Unix.gettimeofday ();
            deadline =
              Option.map
                (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0))
                p.Protocol.deadline_ms;
            trial = false;
            delivered = false;
            deliver =
              (fun r ->
                Mutex.protect m (fun () ->
                    (* idempotent: a crash racing a normal delivery (or a
                       buggy double call) must not skew [remaining] *)
                    if not job.delivered then begin
                      job.delivered <- true;
                      slots.(i) <- Some r;
                      decr remaining;
                      if !remaining = 0 then Condition.broadcast all_done
                    end));
          }
        in
        job)
      params_list
  in
  List.iter
    (fun job ->
      match admit_request t job.params with
      | Error d -> job.deliver (Error d)
      | Ok () -> (
        match Supervisor.admit t.supervisor with
        | Error d -> job.deliver (Error d)
        | Ok trial -> (
          job.trial <- trial;
          try Bqueue.push t.queue job
          with Bqueue.Closed ->
            job.deliver
              (Error
                 (Diag.v ~code:"DP-SRV-SHUTDOWN" ~subsystem:"server"
                    "server is shutting down")))))
    jobs;
  Mutex.protect m (fun () ->
      while !remaining > 0 do
        Condition.wait all_done m
      done);
  Array.to_list slots
  |> List.map (function
       | Some r -> r
       | None ->
         Error
           (Diag.v ~code:"DP-INTERNAL" ~subsystem:"server"
              "request slot never delivered"))

(* ------------------------------------------------------------------ *)
(* Stats *)

let stats_json t =
  let ( served,
        errors,
        deadline_expired,
        crash_dumps,
        guard_rejects,
        (cancelled, toobig_rejects, mem_sheds),
        latency ) =
    locked t (fun () ->
        ( t.served,
          t.errors,
          t.deadline_expired,
          t.crash_dumps,
          t.guard_rejects,
          (t.cancelled, t.toobig_rejects, t.mem_sheds),
          Histogram.to_json t.latency ))
  in
  let cache =
    match t.config.store with
    | None -> Json.Null
    | Some s ->
      let c = Dp_cache.Store.stats s in
      Json.Obj
        [
          ("hits", Json.Int c.hits);
          ("disk_hits", Json.Int c.disk_hits);
          ("misses", Json.Int c.misses);
          ("evictions", Json.Int c.evictions);
          ("corrupt", Json.Int c.corrupt);
          ("stores", Json.Int c.stores);
          ("entries", Json.Int c.entries);
        ]
  in
  let crashes, restarts, rejected = Supervisor.counters t.supervisor in
  let supervisor =
    Json.Obj
      [
        ( "breaker",
          Json.Str (Supervisor.breaker_name (Supervisor.breaker_state t.supervisor)) );
        ("crashes", Json.Int crashes);
        ("restarts", Json.Int restarts);
        ("rejected", Json.Int rejected);
        ("crash_dumps", Json.Int crash_dumps);
        ("deadline_expired", Json.Int deadline_expired);
        ("guard_rejects", Json.Int guard_rejects);
      ]
  in
  let chaos =
    match t.chaos with
    | None -> Json.Null
    | Some c ->
      Json.Obj (List.map (fun (n, k) -> (n, Json.Int k)) (Chaos.injected c))
  in
  let governance =
    Json.Obj
      [
        ("cancelled", Json.Int cancelled);
        ("toobig_rejects", Json.Int toobig_rejects);
        ("mem_sheds", Json.Int mem_sheds);
        ( "mem_watermark_words",
          match t.config.mem_watermark_words with
          | Some w -> Json.Int w
          | None -> Json.Null );
      ]
  in
  Json.Obj
    [
      ("served", Json.Int served);
      ("errors", Json.Int (errors + Listener.bad_lines t.listener));
      ("connections", Json.Int (Listener.connections t.listener));
      ("workers", Json.Int t.config.workers);
      ("queue_depth", Json.Int t.config.queue_depth);
      ("cache", cache);
      ("supervisor", supervisor);
      ("governance", governance);
      ("chaos", chaos);
      ("latency_ms", latency);
    ]

(* ------------------------------------------------------------------ *)
(* Requests the listener hands over *)

let handle t ~id = function
  | Protocol.Stats -> Protocol.ok_response ~id [ ("stats", stats_json t) ]
  | Protocol.Synth p -> (
    match run_jobs t [ p ] with
    | [ Ok o ] -> Protocol.synth_response ~id p o
    | [ Error d ] -> Protocol.error_response ~id d
    | _ -> assert false)
  | Protocol.Batch ps ->
    let results = run_jobs t ps in
    Protocol.batch_response ~id (List.map2 Protocol.batch_element ps results)
  | Protocol.Ping | Protocol.Shutdown -> assert false (* answered by the listener *)

(* ------------------------------------------------------------------ *)

let start config =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.queue_depth < 1 then
    invalid_arg "Server.start: queue_depth must be >= 1";
  (* Binding first masks the signals before the workers exist. *)
  let listener =
    Listener.bind ~socket_path:config.socket_path
      ~handle_signals:config.handle_signals ~log:config.log
  in
  let t =
    {
      config;
      queue = Bqueue.create config.queue_depth;
      supervisor = Supervisor.create ~policy:config.supervisor ~log:config.log ();
      chaos = Option.map Chaos.create config.chaos;
      listener;
      worker_threads = [];
      state_lock = Mutex.create ();
      served = 0;
      errors = 0;
      deadline_expired = 0;
      crash_dumps = 0;
      guard_rejects = 0;
      cancelled = 0;
      toobig_rejects = 0;
      mem_sheds = 0;
      latency = Histogram.create ();
    }
  in
  t.worker_threads <-
    List.init config.workers (fun _ -> Thread.create (fun () -> worker_loop t) ());
  Listener.serve listener ?chaos:t.chaos
    ~on_shutdown:(fun () -> Bqueue.close t.queue)
    (handle t);
  config.log
    (Printf.sprintf "listening on %s (%d workers, queue depth %d)"
       config.socket_path config.workers config.queue_depth);
  t

let request_shutdown t = Listener.request_shutdown t.listener

let wait t =
  Listener.wait t.listener ~drain:(fun () ->
      List.iter Thread.join t.worker_threads);
  (* The drain is complete: log the final counters, latency histogram
     included (stderr for [dpsyn serve]). *)
  t.config.log ("drained: " ^ Json.to_string (stats_json t))

let run config =
  let t = start config in
  wait t
