(** The socket front shared by {!Server} and {!Router}: a Unix-domain
    listener speaking the line protocol of {!Protocol}, one handler
    thread per connection, and the shutdown and signal discipline.  The
    two fronts differ only in the handler they pass to {!serve}.

    The listener answers by itself a line that does not parse
    ([DP-PROTO001]/[DP-PROTO002], echoing the id when it can be
    recovered, connection kept), a line cut off by end of stream
    ([DP-PROTO003]), [ping] (inline, never queued: a pong proves the
    accept loop is alive even while every worker is wedged, which is
    what the shard pool's health check probes) and [shutdown]
    (acknowledged, then {!request_shutdown} — also when the
    acknowledgement is lost). *)

type t

(** SIGTERM, SIGINT (graceful drain) and SIGUSR2 (the watcher's own
    wake-up): what a thread that must never receive them blocks. *)
val signals : int list

(** Bind [socket_path] (replacing a stale file) and ignore SIGPIPE.
    With [handle_signals], block {!signals} in the calling thread — call
    this before spawning threads, which inherit the mask — and start a
    [sigwait] watcher: the first SIGTERM/SIGINT requests a shutdown, a
    second one exits the process with status 130.  Nothing is accepted
    before {!serve}. *)
val bind :
  socket_path:string -> handle_signals:bool -> log:(string -> unit) -> t

(** Start the accept loop.  [handle ~id req] answers [stats], [synth]
    and [batch]; [chaos] injects the [`Respond]-site faults into every
    response line; [on_shutdown] runs once inside {!request_shutdown}. *)
val serve :
  t ->
  ?chaos:Chaos.t ->
  ?on_shutdown:(unit -> unit) ->
  (id:Json.t -> Protocol.request -> Json.t) ->
  unit

(** Idempotent: unlink the socket, run [on_shutdown], stop accepting. *)
val request_shutdown : t -> unit

(** Join the accept loop, run [drain] while the watcher still guards
    the process, then retire the watcher and unblock {!signals}. *)
val wait : ?drain:(unit -> unit) -> t -> unit

(** Connections accepted. *)
val connections : t -> int

(** Malformed and truncated request lines answered. *)
val bad_lines : t -> int
