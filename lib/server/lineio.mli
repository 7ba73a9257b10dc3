(** Buffered line reading straight off a file descriptor.

    [input_line] on a channel cannot distinguish "the peer closed after a
    complete response" from "the peer died mid-line": at EOF it silently
    returns whatever partial line was buffered, which a JSON parser may
    then half-accept.  This reader makes the three outcomes explicit, so
    the protocol layer can map each to the right typed diagnostic:

    - [Line s] — a complete ['\n']-terminated line (terminator stripped);
      a line split across any number of [read] calls is reassembled, in
      time and allocation linear in its length.
    - [Eof] — clean end of stream on a line boundary.
    - [Truncated s] — the stream ended (or the read deadline passed)
      with [s] buffered but unterminated: a torn response.

    The buffer grows to fit the longest line; once every buffered byte
    has been returned, a buffer grown past 64 KiB is replaced by a
    fresh 4 KiB one. *)

type t

type read_result = Line of string | Eof | Truncated of string

val create : Unix.file_descr -> t

(** [read_line ?deadline t] blocks until a full line, EOF, or [deadline]
    (absolute, [Unix.gettimeofday] clock) — whichever comes first.  A
    passed deadline with nothing buffered returns [Truncated ""]. *)
val read_line : ?deadline:float -> t -> read_result

(** [write_line fd line] writes [line ^ "\n"] whole, retrying partial
    writes and [EINTR].  A peer that died mid-response (EPIPE,
    ECONNRESET, …) comes back as a [DP-PROTO004] diagnostic instead of
    an exception — callers must have SIGPIPE ignored process-wide
    (servers do this at start) so the kernel reports the broken pipe as
    an errno rather than a signal. *)
val write_line : Unix.file_descr -> string -> (unit, Dp_diag.Diag.t) result
