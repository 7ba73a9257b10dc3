(** Client for the [dpsyn serve] protocol, with typed transport
    diagnostics and an optional retry loop.

    Every failure is a [Dp_diag.Diag.t]:

    - [DP-PROTO003] — the response line was torn: the stream ended (or
      the read deadline passed) with a partial line buffered.
    - [DP-PROTO004] — transport: connect failure, clean EOF where a
      response was due, write failure, or a timeout with nothing
      buffered.
    - [DP-PROTO005] — the response line was not valid JSON.

    {!call} adds jittered-exponential-backoff retries around a full
    connect/send/receive attempt.  Retrying a synthesis request is
    idempotent by construction: the server keys its cache on the request
    digest, so a retried request that already completed server-side is
    answered from cache with a byte-identical result record. *)

type t

(** [connect ?deadline socket] opens a connection.  The connect is
    non-blocking: a listener whose backlog is full is retried every
    10 ms — with [deadline] (absolute, [Unix.gettimeofday] clock) until
    the deadline, then surfaced as a retryable [DP-PROTO004]; without
    it, until the listener accepts. *)
val connect : ?deadline:float -> string -> (t, Dp_diag.Diag.t) result
val close : t -> unit

val send_line : t -> string -> (unit, Dp_diag.Diag.t) result

(** Read one response line and parse it.  [deadline] is absolute
    ([Unix.gettimeofday] clock). *)
val recv_response : ?deadline:float -> t -> (Json.t, Dp_diag.Diag.t) result

(** One request, one response, on an existing connection. *)
val rpc : ?deadline:float -> t -> Json.t -> (Json.t, Dp_diag.Diag.t) result

(** [once ?deadline ~socket request]: connect, {!rpc}, close — one
    attempt, no retry.  [deadline] bounds the connect and the read. *)
val once :
  ?deadline:float -> socket:string -> Json.t -> (Json.t, Dp_diag.Diag.t) result

(** [ping ~deadline ~id socket]: does a [ping] with this [id] come back
    as a pong before [deadline]?  Any failure is [false]. *)
val ping : deadline:float -> id:Json.t -> string -> bool

type retry = {
  attempts : int;  (** total attempts, including the first *)
  per_attempt_timeout_s : float;  (** <= 0 disables the attempt deadline *)
  seed : int;  (** jitter PRNG seed *)
}

(** 3 attempts, 30 s per attempt, seed 0. *)
val default_retry : retry

(** Should this failure be retried?  True for the transport/truncation
    codes above plus [DP-SRV-CRASH], [DP-SRV-OVERLOAD] and
    [DP-SRV-SHARD-DOWN] (the crash may not recur; the breaker may
    close; the shard may restart or the router fail over).
    [DP-SRV-DEADLINE] is {e not} retryable — the budget is spent. *)
val retryable : Dp_diag.Diag.t -> bool

(** [call ~retry ~socket request] — a full connect/send/receive attempt
    per try, with jittered exponential backoff between tries (50 ms
    doubling per try, capped at 2 s, times a factor in [[0.5, 1.5)]).
    An error {e envelope} whose diagnostic is {!retryable} is retried
    too; the last envelope (or transport error) is returned when
    attempts run out.  Each attempt opens a fresh connection, so a
    server that dropped the line mid-response is simply reconnected
    to. *)
val call : ?retry:retry -> socket:string -> Json.t -> (Json.t, Dp_diag.Diag.t) result
