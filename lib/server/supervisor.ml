module Diag = Dp_diag.Diag

type policy = {
  max_crashes : int;
  window_s : float;
  cooldown_s : float;
  backoff_base_s : float;
  backoff_max_s : float;
}

let default_policy =
  {
    max_crashes = 5;
    window_s = 30.0;
    cooldown_s = 5.0;
    backoff_base_s = 0.05;
    backoff_max_s = 2.0;
  }

type breaker = Closed | Open | Half_open

let breaker_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type state = SClosed | SOpen of float  (** opened_at *) | SHalf_open

type t = {
  policy : policy;
  log : string -> unit;
  lock : Mutex.t;
  mutable window : float list;  (** crash timestamps, newest first *)
  mutable state : state;
  mutable trial_inflight : bool;
  mutable consecutive : int;  (** crashes since the last clean job *)
  mutable crashes : int;
  mutable restarts : int;
  mutable rejected : int;
}

let create ?(policy = default_policy) ~log () =
  {
    policy;
    log;
    lock = Mutex.create ();
    window = [];
    state = SClosed;
    trial_inflight = false;
    consecutive = 0;
    crashes = 0;
    restarts = 0;
    rejected = 0;
  }

let locked t f = Mutex.protect t.lock f

let overload t =
  Diag.v ~code:"DP-SRV-OVERLOAD" ~subsystem:"server"
    ~context:
      [
        ("max_crashes", string_of_int t.policy.max_crashes);
        ("window_s", Fmt.str "%g" t.policy.window_s);
      ]
    "circuit breaker open: too many worker crashes; rejecting new work \
     while in-flight requests drain"

let prune t now =
  t.window <- List.filter (fun ts -> now -. ts <= t.policy.window_s) t.window

let admit t =
  locked t @@ fun () ->
  let now = Unix.gettimeofday () in
  match t.state with
  | SClosed -> Ok false
  | SOpen opened_at when now -. opened_at >= t.policy.cooldown_s ->
    t.state <- SHalf_open;
    t.trial_inflight <- true;
    t.log "circuit breaker half-open: admitting one trial request";
    Ok true
  | SOpen _ ->
    t.rejected <- t.rejected + 1;
    Error (overload t)
  | SHalf_open ->
    if t.trial_inflight then begin
      t.rejected <- t.rejected + 1;
      Error (overload t)
    end
    else begin
      t.trial_inflight <- true;
      Ok true
    end

let record_crash t ~trial =
  locked t @@ fun () ->
  let now = Unix.gettimeofday () in
  t.crashes <- t.crashes + 1;
  t.restarts <- t.restarts + 1;
  t.consecutive <- t.consecutive + 1;
  t.window <- now :: t.window;
  prune t now;
  (match t.state with
  | SHalf_open when trial ->
    t.trial_inflight <- false;
    t.state <- SOpen now;
    t.log "circuit breaker re-opened: trial request crashed"
  | SClosed when List.length t.window > t.policy.max_crashes ->
    t.state <- SOpen now;
    t.log
      (Printf.sprintf
         "circuit breaker opened: %d crashes inside %gs (limit %d)"
         (List.length t.window) t.policy.window_s t.policy.max_crashes)
  | _ -> ());
  let n = min (t.consecutive - 1) 16 in
  Float.min (t.policy.backoff_base_s *. (2.0 ** float_of_int n)) t.policy.backoff_max_s

let record_success t ~trial =
  locked t @@ fun () ->
  t.consecutive <- 0;
  if trial then begin
    t.trial_inflight <- false;
    match t.state with
    | SHalf_open ->
      t.state <- SClosed;
      t.window <- [];
      t.log "circuit breaker closed: trial request succeeded"
    | _ -> ()
  end

let breaker_state t =
  locked t @@ fun () ->
  match t.state with
  | SClosed -> Closed
  | SOpen _ -> Open
  | SHalf_open -> Half_open

let counters t = locked t @@ fun () -> (t.crashes, t.restarts, t.rejected)
