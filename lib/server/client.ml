module Diag = Dp_diag.Diag

type t = { fd : Unix.file_descr; reader : Lineio.t }

let transport ?(code = "DP-PROTO004") ~context fmt =
  Fmt.kstr
    (fun msg -> Error (Diag.v ~code ~subsystem:"proto" ~context msg))
    fmt

(* A listener that is bound but no longer accepting blocks a plain
   connect(2) forever once its backlog fills.  In non-blocking mode
   AF_UNIX reports that state as EAGAIN, so connect non-blocking and
   retry until the deadline, if any: a wedged server degrades to a
   typed, retryable timeout instead of a permanently hung caller. *)
let connect ?deadline socket_path =
  (* A server (or router) that dies between our write and its read must
     surface as a typed transport error, not SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let connected fd =
    Unix.clear_nonblock fd;
    Ok { fd; reader = Lineio.create fd }
  in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let fail fd e =
    close_fd fd;
    transport
      ~context:[ ("socket", socket_path) ]
      "cannot connect: %s" (Unix.error_message e)
  in
  let timed_out msg = transport ~context:[ ("socket", socket_path) ] msg in
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> connected fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      close_fd fd;
      attempt ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      close_fd fd;
      match deadline with
      | Some dl when Unix.gettimeofday () +. 0.01 >= dl ->
        timed_out "timed out connecting: listener backlog full"
      | _ ->
        Thread.delay 0.01;
        attempt ())
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
      (* Not expected for AF_UNIX on Linux, but complete it properly:
         wait for writability, then read the final status. *)
      let wait =
        match deadline with
        | Some dl -> Float.max 0.0 (dl -. Unix.gettimeofday ())
        | None -> -1.0 (* no limit *)
      in
      match Unix.select [] [ fd ] [] wait with
      | _, [ _ ], _ -> (
        match Unix.getsockopt_error fd with
        | None -> connected fd
        | Some e -> fail fd e)
      | _ ->
        close_fd fd;
        timed_out "timed out connecting"
      | exception Unix.Unix_error (e, _, _) -> fail fd e)
    | exception Unix.Unix_error (e, _, _) -> fail fd e
  in
  attempt ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c line =
  match Lineio.write_line c.fd line with
  | Ok () -> Ok ()
  | Error _ -> transport ~context:[] "connection lost while sending the request"

let recv_response ?deadline c =
  match Lineio.read_line ?deadline c.reader with
  | Lineio.Eof ->
    transport ~context:[]
      "server closed the connection before responding"
  | Lineio.Truncated "" when deadline <> None ->
    transport ~context:[] "timed out waiting for the response"
  | Lineio.Truncated partial ->
    transport ~code:"DP-PROTO003"
      ~context:[ ("buffered_bytes", string_of_int (String.length partial)) ]
      "response line truncated: stream ended before the newline"
  | Lineio.Line line -> (
    match Json.of_string line with
    | Ok j -> Ok j
    | Error msg ->
      transport ~code:"DP-PROTO005"
        ~context:[ ("detail", msg) ]
        "response line is not valid JSON")

(* One request, one response line (the protocol is strictly one line per
   request, so this is all a sequential client needs). *)
let rpc ?deadline c request =
  match send_line c (Json.to_string request) with
  | Error _ as e -> e
  | Ok () -> recv_response ?deadline c

let once ?deadline ~socket request =
  match connect ?deadline socket with
  | Error _ as e -> e
  | Ok c ->
    Fun.protect ~finally:(fun () -> close c) @@ fun () ->
    rpc ?deadline c request

let ping ~deadline ~id socket =
  match
    once ~deadline ~socket
      (Protocol.request_to_json { Protocol.id; req = Protocol.Ping })
  with
  | Ok resp ->
    Json.member "pong" resp |> Fun.flip Option.bind Json.to_bool = Some true
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Retry loop *)

type retry = { attempts : int; per_attempt_timeout_s : float; seed : int }

let default_retry = { attempts = 3; per_attempt_timeout_s = 30.0; seed = 0 }

let retryable (d : Diag.t) =
  match d.code with
  | "DP-PROTO003" | "DP-PROTO004" | "DP-SRV-CRASH" | "DP-SRV-OVERLOAD"
  | "DP-SRV-SHARD-DOWN" ->
    true
  | _ -> false

let envelope_diag response =
  match Json.member "ok" response |> Fun.flip Option.bind Json.to_bool with
  | Some false -> (
    match Json.member "error" response with
    | Some err -> (
      match Json.member "code" err |> Fun.flip Option.bind Json.to_str with
      | Some code ->
        let message =
          Option.value
            (Json.member "message" err |> Fun.flip Option.bind Json.to_str)
            ~default:""
        in
        Some (Diag.v ~code ~subsystem:"proto" message)
      | None -> None)
    | None -> None)
  | _ -> None

let call ?(retry = default_retry) ~socket request =
  let rng = Random.State.make [| retry.seed; 0xc11e |] in
  let attempts = max 1 retry.attempts in
  let backoff k =
    (* exponential with full jitter: 50 ms * 2^k, capped at 2 s, times
       [0.5, 1.5) *)
    let capped = Float.min (0.05 *. (2.0 ** float_of_int k)) 2.0 in
    capped *. (0.5 +. Random.State.float rng 1.0)
  in
  let rec go k =
    let deadline =
      if retry.per_attempt_timeout_s <= 0.0 then None
      else Some (Unix.gettimeofday () +. retry.per_attempt_timeout_s)
    in
    let r = once ?deadline ~socket request in
    let verdict =
      match r with
      | Error d -> if retryable d then `Retry else `Done
      | Ok response -> (
        match envelope_diag response with
        | Some d when retryable d -> `Retry
        | _ -> `Done)
    in
    match verdict with
    | `Done -> r
    | `Retry when k + 1 >= attempts -> r
    | `Retry ->
      Thread.delay (backoff k);
      go (k + 1)
  in
  go 0
