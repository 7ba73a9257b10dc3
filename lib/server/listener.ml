module Diag = Dp_diag.Diag

let signals = [ Sys.sigterm; Sys.sigint; Sys.sigusr2 ]

type t = {
  socket_path : string;
  log : string -> unit;
  listen_fd : Unix.file_descr;
  (* self-pipe: closing a listen socket does not wake a thread already
     blocked on it, so shutdown (and the signal watcher) writes one byte
     here and the accept loop selects on both *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable signal_thread : Thread.t option;
  mutable on_shutdown : unit -> unit;
  shutting_down : bool Atomic.t;
  connections : int Atomic.t;
  bad_lines : int Atomic.t;  (* malformed and truncated lines answered *)
}

let wake t =
  try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
  with Unix.Unix_error _ -> ()

let bind ~socket_path ~handle_signals ~log =
  (* A dead client mid-response must not kill the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists socket_path then Sys.remove socket_path;
  (* Every descriptor here is close-on-exec, so a shard the front's pool
     execs does not inherit the front's socket, pipe or connections. *)
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 16;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      socket_path;
      log;
      listen_fd;
      wake_r;
      wake_w;
      accept_thread = None;
      signal_thread = None;
      on_shutdown = ignore;
      shutting_down = Atomic.make false;
      connections = Atomic.make 0;
      bad_lines = Atomic.make 0;
    }
  in
  if handle_signals then begin
    (* A [Sys.Signal_handle] callback only runs at an OCaml safe point of
       whichever thread the kernel happened to pick — and that thread may
       be parked forever in [pthread_cond_wait] (a worker, or the main
       thread joining in [wait]), so the callback can simply never fire.
       Instead, block the signals in this thread *before* the caller
       spawns any other (spawned threads inherit the mask) and claim them
       from a dedicated [sigwait] thread, which is immune to that
       lottery.  The watcher only writes the wake byte; the shutdown
       itself runs in the accept loop. *)
    ignore (Thread.sigmask Unix.SIG_BLOCK signals);
    let rec watch ~first =
      let s = Thread.wait_signal signals in
      if s = Sys.sigusr2 then ()
      else if first then begin
        wake t;
        watch ~first:false
      end
      else (* second SIGTERM/SIGINT: the drain is taking too long — don't
              be unkillable *)
        Stdlib.exit 130
    in
    t.signal_thread <- Some (Thread.create (fun () -> watch ~first:true) ())
  end;
  t

let request_shutdown t =
  if not (Atomic.exchange t.shutting_down true) then begin
    t.log "shutting down";
    (* Unlink before waking the accept loop: [wait] returns once the
       accept thread and the drain have joined, and a caller must then
       observe the socket file already gone. *)
    (try Sys.remove t.socket_path with Sys_error _ -> ());
    t.on_shutdown ();
    wake t
  end

(* ------------------------------------------------------------------ *)
(* Connection handling *)

(* A chaos-torn response: the connection must die mid-line. *)
exception Torn_response

(* The peer vanished mid-response: [Lineio.write_line] returned its
   typed EPIPE/ECONNRESET diagnostic.  The connection closes; the
   process (SIGPIPE is ignored) never notices beyond a log line. *)
exception Peer_gone of Diag.t

let respond chaos fd json =
  let line = Json.to_string json in
  let write_whole () =
    match Lineio.write_line fd line with
    | Ok () -> ()
    | Error d -> raise (Peer_gone d)
  in
  let write_half () =
    let wire = line ^ "\n" in
    let cut = max 1 (String.length wire / 2) in
    try ignore (Unix.write fd (Bytes.of_string wire) 0 cut)
    with Unix.Unix_error _ -> ()
  in
  match Option.bind chaos (fun c -> Chaos.tick c ~site:`Respond) with
  | Some Chaos.Truncate_response ->
    write_half ();
    raise Torn_response
  | Some Chaos.Delay_response ->
    (* Hold the answer back long enough to look like a tail-latency
       straggler (and to trip a hedging router's delay), then deliver
       it intact. *)
    Option.iter (fun c -> Thread.delay (Chaos.slow_s c)) chaos;
    write_whole ()
  | Some Chaos.Dup_response ->
    (* The same well-formed line twice: one request per connection means
       the reader takes the first and the duplicate dies with the
       socket — duplicated wire bytes must never become a duplicated
       side effect. *)
    write_whole ();
    (match Lineio.write_line fd line with Ok () | Error _ -> ())
  | Some Chaos.Drop_mid_line ->
    (* Half a line, then a hard close in both directions: the abrupt-
       hangup variant of [Truncate_response]. *)
    write_half ();
    (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    raise Torn_response
  | _ -> write_whole ()

let handle_line t chaos handle fd line =
  match Protocol.request_of_line line with
  | Error d ->
    Atomic.incr t.bad_lines;
    respond chaos fd (Protocol.error_response ~id:(Protocol.id_of_line line) d);
    `Continue
  | Ok { id; req = Protocol.Ping } ->
    respond chaos fd (Protocol.ok_response ~id [ ("pong", Json.Bool true) ]);
    `Continue
  | Ok { id; req = Protocol.Shutdown } ->
    (* A lost acknowledgement (torn by chaos, or the peer already gone)
       must not cancel the shutdown it acknowledges. *)
    Fun.protect
      ~finally:(fun () -> request_shutdown t)
      (fun () -> respond chaos fd (Protocol.ok_response ~id []));
    `Close
  | Ok { id; req } ->
    respond chaos fd (handle ~id req);
    `Continue

let handle_connection t chaos handle fd =
  Atomic.incr t.connections;
  let reader = Lineio.create fd in
  let rec loop () =
    match Lineio.read_line reader with
    | Lineio.Eof -> ()
    | Lineio.Truncated partial ->
      (* The peer died (or gave up) mid-request; answer with the typed
         truncation diagnostic in case its read side is still open. *)
      Atomic.incr t.bad_lines;
      (try
         respond chaos fd
           (Protocol.error_response ~id:Json.Null
              (Diag.v ~code:"DP-PROTO003" ~subsystem:"proto"
                 ~context:[ ("buffered_bytes", string_of_int (String.length partial)) ]
                 "request line truncated: stream ended before the newline"))
       with Torn_response | Peer_gone _ -> ())
    | Lineio.Line "" -> loop ()
    | Lineio.Line line -> (
      match handle_line t chaos handle fd line with
      | `Continue -> loop ()
      | `Close -> ()
      | exception Torn_response -> ()
      | exception Peer_gone d ->
        t.log (Printf.sprintf "dropping connection: %s" d.Diag.message))
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t chaos handle =
  let rec go () =
    if Atomic.get t.shutting_down then ()
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> ()
      | ready, _, _ ->
        if List.mem t.wake_r ready then begin
          (* Either [request_shutdown] woke us, or the signal watcher did;
             in the latter case the shutdown itself runs here. *)
          (try ignore (Unix.read t.wake_r (Bytes.create 1) 0 1)
           with Unix.Unix_error _ -> ());
          request_shutdown t
        end
        else (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
            ignore
              (Thread.create (fun () -> handle_connection t chaos handle fd) ());
            go ()
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            go ()
          | exception Unix.Unix_error (_, _, _) -> ())
  in
  go ();
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let serve t ?chaos ?(on_shutdown = ignore) handle =
  t.on_shutdown <- on_shutdown;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t chaos handle) ())

let wait ?(drain = ignore) t =
  Option.iter Thread.join t.accept_thread;
  t.accept_thread <- None;
  drain ();
  (* Retire the signal watcher before closing the wake pipe, so a late
     signal cannot write into a recycled descriptor: its private SIGUSR2
     makes [wait_signal] return whether the watcher is still on its
     first wait or already waiting for a second TERM/INT; join, then
     restore default delivery for this thread. *)
  (match t.signal_thread with
  | None -> ()
  | Some th ->
    (try Unix.kill (Unix.getpid ()) Sys.sigusr2 with Unix.Unix_error _ -> ());
    Thread.join th;
    t.signal_thread <- None;
    ignore (Thread.sigmask Unix.SIG_UNBLOCK signals));
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let connections t = Atomic.get t.connections
let bad_lines t = Atomic.get t.bad_lines
