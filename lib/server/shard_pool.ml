(* A pool of shard server processes under OS-level supervision.

   Each shard is a full [dpsyn serve] process on its own Unix socket,
   sharing the content-addressed disk store with its siblings.  The pool
   owns their lifecycle: it forks (or forks+execs) each shard, watches
   for exits with a non-blocking [waitpid] poll, probes liveness with
   periodic [ping] requests (the only detector that catches a *hung*
   process — a SIGSTOPped shard still looks alive to waitpid), and
   restarts the dead with the same exponential-backoff +
   restart-intensity breaker semantics the in-process worker supervisor
   uses.  A shard that keeps dying opens its breaker and stops being
   restarted until the cooldown passes; its digest range is served by
   failover at the router in the meantime. *)

module Diag = Dp_diag.Diag

(* How a shard process is brought up.  [Spawn_fork] runs the closure in
   the forked child — it must never return normally (the pool calls
   [Unix._exit] behind it regardless, so parent state like Alcotest
   at_exit hooks can never run twice).  [Spawn_exec] builds an argv and
   replaces the child image entirely — the robust choice for the CLI,
   immune to locks or threads inherited across [fork]. *)
type spawn =
  | Spawn_fork of (id:int -> socket_path:string -> unit)
  | Spawn_exec of (id:int -> socket_path:string -> string array)

type config = {
  shards : int;
  socket_for : int -> string;
  spawn : spawn;
  health_period_s : float;
  health_timeout_s : float;
  health_failures : int;
  startup_grace_s : float;
  stable_s : float;
  poll_period_s : float;
  grace_s : float;
  supervisor : Supervisor.policy;
  log : string -> unit;
  state_file : string option;
}

let default_config ~socket_for ~spawn ~shards =
  {
    shards;
    socket_for;
    spawn;
    health_period_s = 0.25;
    health_timeout_s = 1.0;
    health_failures = 3;
    startup_grace_s = 5.0;
    stable_s = 2.0;
    poll_period_s = 0.03;
    grace_s = 5.0;
    supervisor = Supervisor.default_policy;
    log = ignore;
    state_file = None;
  }

type phase = Up | Backoff | Stopped

type shard = {
  id : int;
  socket : string;
  sup : Supervisor.t;
  mutable pid : int option;
  mutable phase : phase;
  mutable started_at : float;
  mutable restart_at : float;  (* meaningful in [Backoff] *)
  mutable health_fails : int;  (* consecutive failed pings *)
  mutable trial : bool;  (* this incarnation is the breaker's probe *)
  mutable stable_recorded : bool;
  mutable restarts : int;  (* respawns after a death (not first start) *)
  mutable health_kills : int;  (* SIGKILLs issued by the health checker *)
  mutable adopted : bool;  (* live process reattached, not our child *)
}

type t = {
  config : config;
  shards : shard array;
  lock : Mutex.t;
  mutable monitor : Thread.t option;
  mutable health : Thread.t option;
  mutable shutting_down : bool;
  mutable adoptions : int;  (* shards reattached instead of respawned *)
}

let locked t f = Mutex.protect t.lock f
let shard_count t = t.config.shards

let phase_name = function
  | Up -> "up"
  | Backoff -> "backoff"
  | Stopped -> "stopped"

(* ------------------------------------------------------------------ *)
(* Fleet state file: which pid serves which shard socket.  A pool
   started with the same [state_file] after its owner crashed (e.g. a
   SIGKILLed router) reattaches to the still-live shard processes
   instead of respawning the fleet. *)

(* [kill 0] probes existence without delivering anything; EPERM still
   means "exists". *)
let process_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.EPERM, _, _) -> true
  | exception Unix.Unix_error _ -> false

(* Call with [t.lock] held (or before the pool threads exist). *)
let write_state_locked t =
  match t.config.state_file with
  | None -> ()
  | Some path ->
    let shards =
      Array.to_list t.shards
      |> List.filter_map (fun s ->
             match (s.phase, s.pid) with
             | Up, Some pid ->
               Some
                 (Json.Obj
                    [
                      ("id", Json.Int s.id);
                      ("pid", Json.Int pid);
                      ("socket", Json.Str s.socket);
                    ])
             | _ -> None)
    in
    let doc =
      Json.Obj
        [ ("schema", Json.Str "dpsyn-shards/1"); ("shards", Json.List shards) ]
    in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    (try
       Out_channel.with_open_bin tmp (fun oc ->
           output_string oc (Json.to_string doc);
           output_char oc '\n');
       Sys.rename tmp path
     with Sys_error _ | Unix.Unix_error _ -> (
       try Sys.remove tmp with Sys_error _ -> ()))

(* The recorded (id, pid, socket) per shard from a previous
   incarnation's state file, if readable. *)
let read_state path =
  if not (Sys.file_exists path) then []
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> []
    | raw -> (
      match Json.of_string (String.trim raw) with
      | Error _ -> []
      | Ok doc ->
        (match Json.member "schema" doc |> Fun.flip Option.bind Json.to_str with
        | Some "dpsyn-shards/1" -> (
          match Json.member "shards" doc |> Fun.flip Option.bind Json.to_list with
          | Some shards ->
            List.filter_map
              (fun sh ->
                match
                  ( Json.member "id" sh |> Fun.flip Option.bind Json.to_int,
                    Json.member "pid" sh |> Fun.flip Option.bind Json.to_int,
                    Json.member "socket" sh |> Fun.flip Option.bind Json.to_str )
                with
                | Some id, Some pid, Some socket -> Some (id, pid, socket)
                | _ -> None)
              shards
          | None -> [])
        | _ -> []))

(* ------------------------------------------------------------------ *)
(* Spawning *)

let spawn_shard t s =
  s.adopted <- false;
  (* Remove a stale socket first so a ping cannot reach a ghost. *)
  (try Sys.remove s.socket with Sys_error _ -> ());
  match Unix.fork () with
  | 0 ->
    (* Child.  [_exit], never [exit]: the parent's at_exit handlers
       (test runners, channel flushers) must not run a second time.
       Restart-path forks come from the monitor thread, whose signal
       mask blocks SIGTERM/SIGINT; the child must not inherit that or
       an exec'd shard could never be terminated gracefully. *)
    (try ignore (Unix.sigprocmask Unix.SIG_SETMASK []) with Invalid_argument _ -> ());
    (match t.config.spawn with
    | Spawn_fork f ->
      (try f ~id:s.id ~socket_path:s.socket with _ -> Unix._exit 1);
      Unix._exit 0
    | Spawn_exec f ->
      let argv = f ~id:s.id ~socket_path:s.socket in
      (try Unix.execv argv.(0) argv with _ -> Unix._exit 127))
  | pid ->
    s.pid <- Some pid;
    s.phase <- Up;
    s.started_at <- Unix.gettimeofday ();
    s.health_fails <- 0;
    s.stable_recorded <- false;
    t.config.log
      (Printf.sprintf "shard %d: started pid %d on %s" s.id pid s.socket);
    write_state_locked t

(* ------------------------------------------------------------------ *)
(* Monitor: waitpid polling, backoff scheduling, restarts *)

(* OCaml reports signals with its own (negative) numbering; name the
   ones this subsystem actually deals in. *)
let signal_name sg =
  if sg = Sys.sigkill then "SIGKILL"
  else if sg = Sys.sigterm then "SIGTERM"
  else if sg = Sys.sigint then "SIGINT"
  else if sg = Sys.sigsegv then "SIGSEGV"
  else if sg = Sys.sigabrt then "SIGABRT"
  else if sg = Sys.sigstop then "SIGSTOP"
  else Printf.sprintf "signal %d" sg

let status_reason = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED sg -> Printf.sprintf "killed by %s" (signal_name sg)
  | Unix.WSTOPPED sg -> Printf.sprintf "stopped by %s" (signal_name sg)

let note_death t s ~reason =
  s.pid <- None;
  s.adopted <- false;
  let backoff = Supervisor.record_crash s.sup ~trial:s.trial in
  s.trial <- false;
  s.phase <- Backoff;
  s.restart_at <- Unix.gettimeofday () +. backoff;
  t.config.log
    (Printf.sprintf "[DP-SRV-SHARD-DOWN] shard %d %s; restart in %.3fs" s.id
       reason backoff);
  write_state_locked t

let monitor_step t =
  locked t @@ fun () ->
  if not t.shutting_down then
    Array.iter
      (fun s ->
        match s.phase with
        | Stopped -> ()
        | Up -> (
          match s.pid with
          | None -> ()
          | Some pid ->
            let record_stable () =
              (* Alive.  An incarnation that has stayed up [stable_s]
                 counts as a supervisor success: consecutive-crash
                 backoff resets, and a half-open breaker closes. *)
              if
                (not s.stable_recorded)
                && Unix.gettimeofday () -. s.started_at >= t.config.stable_s
              then begin
                s.stable_recorded <- true;
                Supervisor.record_success s.sup ~trial:s.trial;
                s.trial <- false
              end
            in
            if s.adopted then begin
              (* An adopted shard is not our child: waitpid would raise
                 ECHILD on a live process, so existence is the only
                 exit detector (the health ping still catches hangs). *)
              if process_alive pid then record_stable ()
              else note_death t s ~reason:"adopted process vanished"
            end
            else (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> record_stable ()
              | p, status when p = pid ->
                note_death t s ~reason:(status_reason status)
              | _ -> ()
              | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                note_death t s ~reason:(status_reason (Unix.WEXITED 255))
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()))
        | Backoff ->
          if Unix.gettimeofday () >= s.restart_at then (
            match Supervisor.admit s.sup with
            | Ok trial ->
              s.trial <- trial;
              s.restarts <- s.restarts + 1;
              t.config.log
                (Printf.sprintf
                   "[DP-SRV-SHARD-RESTART] shard %d: restarting (attempt %d%s)"
                   s.id s.restarts
                   (if trial then ", breaker probe" else ""));
              spawn_shard t s
            | Error _ ->
              (* Breaker open: stay down through the cooldown; re-ask on
                 a pace that doesn't spin. *)
              s.restart_at <- Unix.gettimeofday () +. 0.1))
      t.shards

(* Pool threads must never be the thread the kernel picks for a
   process-directed SIGTERM/SIGINT/SIGUSR2: a host whose {!Listener}
   handles signals with a sigwait thread relies on every other thread
   blocking them, and these threads are created before the host gets a
   chance to set its mask. *)
let block_host_signals () =
  try ignore (Thread.sigmask Unix.SIG_BLOCK Listener.signals)
  with Invalid_argument _ -> ()

let monitor_loop t =
  block_host_signals ();
  let rec go () =
    if locked t (fun () -> t.shutting_down) then ()
    else begin
      monitor_step t;
      Thread.delay t.config.poll_period_s;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Health checking: ping every Up shard; a shard that cannot pong
   [health_failures] times in a row is SIGKILLed (SIGKILL also
   terminates a SIGSTOPped process) and takes the normal death →
   backoff → restart path through the monitor. *)

let ping_ok t s =
  Client.ping
    ~deadline:(Unix.gettimeofday () +. t.config.health_timeout_s)
    ~id:(Json.Str (Printf.sprintf "hc-%d" s.id))
    s.socket

let health_step t =
  (* Snapshot targets under the lock, ping outside it: a hung shard
     must not stall the monitor for [health_timeout_s]. *)
  let targets =
    locked t (fun () ->
        if t.shutting_down then []
        else
          Array.to_list t.shards
          |> List.filter_map (fun s ->
                 match (s.phase, s.pid) with
                 | Up, Some pid -> Some (s, pid)
                 | _ -> None))
  in
  List.iter
    (fun (s, pid) ->
      let ok = ping_ok t s in
      locked t @@ fun () ->
      (* Only score the probe against the same incarnation we pinged. *)
      if (not t.shutting_down) && s.phase = Up && s.pid = Some pid then
        if ok then s.health_fails <- 0
        else begin
          let young =
            Unix.gettimeofday () -. s.started_at < t.config.startup_grace_s
          in
          if not young then begin
            s.health_fails <- s.health_fails + 1;
            if s.health_fails >= t.config.health_failures then begin
              s.health_kills <- s.health_kills + 1;
              t.config.log
                (Printf.sprintf
                   "[DP-SRV-SHARD-DOWN] shard %d pid %d failed %d health \
                    checks; killing it"
                   s.id pid s.health_fails);
              (* SIGKILL cannot be blocked and terminates even a stopped
                 process; the monitor reaps it and schedules the
                 restart. *)
              try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
            end
          end
        end)
    targets

let health_loop t =
  block_host_signals ();
  let rec go () =
    if locked t (fun () -> t.shutting_down) then ()
    else begin
      health_step t;
      Thread.delay t.config.health_period_s;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)

let start (config : config) =
  if config.shards < 1 then invalid_arg "Shard_pool.start: shards must be >= 1";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      config;
      shards =
        Array.init config.shards (fun id ->
            {
              id;
              socket = config.socket_for id;
              sup = Supervisor.create ~policy:config.supervisor ~log:config.log ();
              pid = None;
              phase = Stopped;
              started_at = 0.0;
              restart_at = 0.0;
              health_fails = 0;
              trial = false;
              stable_recorded = false;
              restarts = 0;
              health_kills = 0;
              adopted = false;
            });
      lock = Mutex.create ();
      monitor = None;
      health = None;
      shutting_down = false;
      adoptions = 0;
    }
  in
  (* A previous pool incarnation (same [state_file]) may have left live
     shard processes behind — a SIGKILLed router cannot take its fleet
     down with it.  Reattach to any recorded pid that still exists and
     answers a ping on its socket; spawn the rest.  This runs before
     the monitor/health threads exist, so no lock is needed for the
     pings. *)
  let recorded =
    match config.state_file with Some p -> read_state p | None -> []
  in
  Array.iter
    (fun s ->
      let candidate =
        List.find_opt
          (fun (id, _, socket) -> id = s.id && String.equal socket s.socket)
          recorded
      in
      match candidate with
      | Some (_, pid, _) when process_alive pid && ping_ok t s ->
        s.pid <- Some pid;
        s.adopted <- true;
        s.phase <- Up;
        s.started_at <- Unix.gettimeofday ();
        t.adoptions <- t.adoptions + 1;
        t.config.log
          (Printf.sprintf "shard %d: reattached to live pid %d on %s" s.id pid
             s.socket)
      | _ -> locked t (fun () -> spawn_shard t s))
    t.shards;
  locked t (fun () -> write_state_locked t);
  t.monitor <- Some (Thread.create (fun () -> monitor_loop t) ());
  t.health <- Some (Thread.create (fun () -> health_loop t) ());
  t

let socket_of t i = t.shards.(i).socket
let is_up t i = locked t (fun () -> t.shards.(i).phase = Up)

(* Test/chaos hooks: deliver a signal to a shard's current incarnation. *)
let signal_shard t i sg =
  match locked t (fun () -> t.shards.(i).pid) with
  | None -> false
  | Some pid -> ( try Unix.kill pid sg; true with Unix.Unix_error _ -> false)

(* Block until every shard answers a ping (all sockets bound and
   accepting), or [timeout_s] passes. *)
let wait_all_up ?(timeout_s = 10.0) t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let all =
      Array.for_all
        (fun s -> locked t (fun () -> s.phase = Up) && ping_ok t s)
        t.shards
    in
    if all then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.05;
      go ()
    end
  in
  go ()

let counters t =
  locked t (fun () ->
      Array.fold_left
        (fun (r, h) s -> (r + s.restarts, h + s.health_kills))
        (0, 0) t.shards)

let stats_json t =
  let per_shard =
    locked t (fun () ->
        Array.to_list t.shards
        |> List.map (fun s ->
               let crashes, restarts, rejected = Supervisor.counters s.sup in
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("state", Json.Str (phase_name s.phase));
                   ( "pid",
                     match s.pid with Some p -> Json.Int p | None -> Json.Null );
                   ("restarts", Json.Int s.restarts);
                   ("health_kills", Json.Int s.health_kills);
                   ("adopted", Json.Bool s.adopted);
                   ( "breaker",
                     Json.Str (Supervisor.breaker_name (Supervisor.breaker_state s.sup)) );
                   ("crashes", Json.Int crashes);
                   ("supervisor_restarts", Json.Int restarts);
                   ("rejected", Json.Int rejected);
                 ]))
  in
  let restarts, health_kills = counters t in
  Json.Obj
    [
      ("shards", Json.Int t.config.shards);
      ("restarts", Json.Int restarts);
      ("health_kills", Json.Int health_kills);
      ("adopted", Json.Int (locked t (fun () -> t.adoptions)));
      ("detail", Json.List per_shard);
    ]

(* ------------------------------------------------------------------ *)
(* Shutdown: stop supervising, then terminate the fleet — SIGCONT (a
   stopped shard cannot process SIGTERM) + SIGTERM, a bounded graceful
   drain, SIGKILL for stragglers, and a final reap of every child. *)

let shutdown t =
  let first =
    locked t (fun () ->
        if t.shutting_down then false
        else begin
          t.shutting_down <- true;
          true
        end)
  in
  if first then begin
    Option.iter Thread.join t.monitor;
    Option.iter Thread.join t.health;
    t.monitor <- None;
    t.health <- None;
    let live () =
      Array.to_list t.shards
      |> List.filter_map (fun s ->
             match s.pid with Some pid -> Some (s, pid) | None -> None)
    in
    List.iter
      (fun (_, pid) ->
        (try Unix.kill pid Sys.sigcont with Unix.Unix_error _ -> ());
        try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
      (live ());
    let deadline = Unix.gettimeofday () +. t.config.grace_s in
    let rec drain () =
      let remaining =
        List.filter
          (fun (s, pid) ->
            if s.adopted then
              (* Not our child: waitpid raises ECHILD while the process
                 is still draining — existence is the exit signal. *)
              if process_alive pid then true
              else begin
                s.pid <- None;
                false
              end
            else
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> true
              | _ -> s.pid <- None; false
              | exception Unix.Unix_error _ -> s.pid <- None; false)
          (live ())
      in
      if remaining = [] then ()
      else if Unix.gettimeofday () > deadline then
        List.iter
          (fun (s, pid) ->
            t.config.log
              (Printf.sprintf "shard %d pid %d ignored SIGTERM; killing" s.id pid);
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
            s.pid <- None)
          remaining
      else begin
        Thread.delay 0.02;
        drain ()
      end
    in
    drain ();
    Array.iter
      (fun s ->
        s.phase <- Stopped;
        try Sys.remove s.socket with Sys_error _ -> ())
      t.shards;
    (* The fleet is down by choice; the next pool must start fresh, not
       chase recorded pids. *)
    match t.config.state_file with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ()
  end
