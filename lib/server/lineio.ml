module Diag = Dp_diag.Diag

(* [buf.(start .. stop - 1)] holds the bytes received but not yet
   returned, of which [buf.(start .. scanned - 1)] hold no '\n': each byte
   is scanned once and a line is copied out once, so a line of L bytes
   costs O(L) however many reads deliver it.  Reads land straight in
   [buf], which is per-reader, so concurrent connections don't race. *)
type t = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable scanned : int;
  mutable stop : int;
}

type read_result = Line of string | Eof | Truncated of string

let initial_size = 4096

(* A drained buffer larger than this is given back: one long line must
   not pin twice its size for the rest of the connection. *)
let max_kept_size = 65536

let create fd =
  { fd; buf = Bytes.create initial_size; start = 0; scanned = 0; stop = 0 }

(* Call once every buffered byte has been returned. *)
let reset t =
  if Bytes.length t.buf > max_kept_size then t.buf <- Bytes.create initial_size;
  t.start <- 0;
  t.scanned <- 0;
  t.stop <- 0

(* Extract the first complete line from the buffer, if any. *)
let take_line t =
  let rec newline i =
    if i = t.stop then None
    else if Bytes.unsafe_get t.buf i = '\n' then Some i
    else newline (i + 1)
  in
  match newline t.scanned with
  | None ->
    t.scanned <- t.stop;
    None
  | Some i ->
    let line = Bytes.sub_string t.buf t.start (i - t.start) in
    if i + 1 = t.stop then reset t
    else begin
      t.start <- i + 1;
      t.scanned <- i + 1
    end;
    Some line

(* Room at the end of a full buffer: move the unreturned bytes to the
   front, into a buffer twice as large when they fill more than half of
   it. *)
let make_room t =
  let live = t.stop - t.start in
  let buf =
    if 2 * live <= Bytes.length t.buf then t.buf
    else Bytes.create (2 * Bytes.length t.buf)
  in
  Bytes.blit t.buf t.start buf 0 live;
  t.buf <- buf;
  t.scanned <- t.scanned - t.start;
  t.start <- 0;
  t.stop <- live

let drain_buffered t =
  let s = Bytes.sub_string t.buf t.start (t.stop - t.start) in
  reset t;
  s

let read_line ?deadline t =
  let rec go () =
    match take_line t with
    | Some line -> Line line
    | None -> (
      (* Wait for readability so a deadline interrupts a stalled peer. *)
      let timed_out =
        match deadline with
        | None -> false
        | Some d -> (
          let remaining = d -. Unix.gettimeofday () in
          remaining <= 0.0
          ||
          match Unix.select [ t.fd ] [] [] remaining with
          | [], _, _ -> true
          | _ -> false
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> false)
      in
      if timed_out then Truncated (drain_buffered t)
      else begin
        if t.stop = Bytes.length t.buf then make_room t;
        match Unix.read t.fd t.buf t.stop (Bytes.length t.buf - t.stop) with
        | 0 -> if t.stop = t.start then Eof else Truncated (drain_buffered t)
        | n ->
          t.stop <- t.stop + n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          if t.stop = t.start then Eof else Truncated (drain_buffered t)
      end)
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Writing *)

(* One whole line onto the descriptor, handling partial writes and a
   peer that died mid-response.  With SIGPIPE ignored process-wide (the
   server and router both do this at start), a write to a closed socket
   surfaces as EPIPE/ECONNRESET here and becomes a typed transport
   diagnostic — never a killed process, never an exception escaping the
   connection handler. *)
let write_line fd line =
  let data = line ^ "\n" in
  let len = String.length data in
  let peer_gone e =
    Error
      (Diag.v ~code:"DP-PROTO004" ~subsystem:"proto"
         ~context:[ ("errno", Unix.error_message e) ]
         "peer closed the connection while the response was being written")
  in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write_substring fd data off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ESHUTDOWN) as e, _, _)
        ->
        peer_gone e
      | exception Unix.Unix_error (e, _, _) -> peer_gone e
  in
  go 0
