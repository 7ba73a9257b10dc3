(* The served workloads: a `dpsyn serve` child process (single-process,
   or a router in front of two shard processes) driven by two
   closed-loop client threads, one connection per request through
   [Client.call], as `dpsyn client`/`batch` do. *)

open Util
module Json = Dp_server.Json
module Client = Dp_server.Client
module P = Dp_server.Protocol

type topology = Single | Sharded

type server = { pid : int; socket : string; topology : topology; log : string }

(* bin/dpsyn.exe of the same build as this executable. *)
let dpsyn_exe () =
  let root = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat root "bin") "dpsyn.exe"

let once = { Client.default_retry with attempts = 1; per_attempt_timeout_s = 60.0 }
let synth_json id (r : Gen.req) = P.request_to_json { P.id = Json.Int id; req = P.Synth r.params }

type reply =
  | Served of { record : string; cached : bool }
  | Refused of string  (** a typed error envelope *)
  | Lost of string  (** a transport failure *)

let classify = function
  | Error d -> Lost (Dp_diag.Diag.to_string d)
  | Ok resp -> (
    match (Json.member "ok" resp, Json.member "result" resp) with
    | Some (Json.Bool true), Some record ->
      Served
        {
          record = Json.to_string record;
          cached = Json.member "cached" resp = Some (Json.Bool true);
        }
    | _ -> Refused (Json.to_string resp))

let rec json_path j = function
  | [] -> Some j
  | k :: ks -> Option.bind (Json.member k j) (fun j -> json_path j ks)

let num j ks =
  match Option.bind j (fun j -> json_path j ks) with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> 0.0

let stats s =
  match
    Client.call ~retry:once ~socket:s.socket
      (P.request_to_json { P.id = Json.Str "stats"; req = P.Stats })
  with
  | Ok resp -> Json.member "stats" resp
  | Error _ -> None

(* Shard processes of a sharded topology, from the router's stats. *)
let shard_pids st =
  match Option.bind st (fun j -> json_path j [ "shard_pool"; "detail" ]) with
  | Some (Json.List shards) ->
    List.filter_map
      (fun s ->
        match Json.member "pid" s with Some (Json.Int p) -> Some p | _ -> None)
      shards
  | _ -> []

let fail_with_log s fmt =
  Printf.ksprintf
    (fun msg ->
      let log =
        try In_channel.with_open_text s.log In_channel.input_all
        with Sys_error _ -> ""
      in
      failwith (msg ^ "\nserver log:\n" ^ log))
    fmt

(* Servers started and not yet stopped, for [stop_all] at exit. *)
let live = ref []

let stop s =
  live := List.filter (fun l -> l.pid <> s.pid) !live;
  let shards = if s.topology = Sharded then shard_pids (stats s) else [] in
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap s.pid;
  (* The router stops its shards on the way out; make sure of it. *)
  List.iter
    (fun p ->
      if alive p then begin
        (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ());
        let deadline = now () +. 2.0 in
        while alive p && now () < deadline do
          Thread.delay 0.01
        done
      end)
    shards

let stop_all () = List.iter stop !live

(* Start the topology and time it until it has answered its first
   synthesis request — a counter-based strategy, so the first
   certificate check is part of it. *)
let launch ~tag topology =
  let dir = Filename.concat (Lazy.force run_dir) tag in
  mkdir_p dir;
  let socket = Filename.concat dir "sock" in
  let exe = dpsyn_exe () in
  let argv =
    [ exe; "serve"; "--socket"; socket ]
    @
    match topology with
    | Single -> []
    | Sharded ->
      [
        "--shards"; "2"; "--workers"; "1";
        "--journal"; Filename.concat dir "journal";
        "--cache-dir"; Filename.concat dir "cache";
      ]
  in
  let log = Filename.concat dir "log" in
  let first = synth_json 0 (Gen.first_request ()) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list argv) devnull devnull logfd in
  Unix.close devnull;
  Unix.close logfd;
  let s = { pid; socket; topology; log } in
  live := s :: !live;
  let rec wait () =
    match classify (Client.call ~retry:once ~socket first) with
    | Served _ -> now () -. t0
    | Refused m -> stop s; fail_with_log s "first request refused: %s" m
    | Lost m ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        live := List.filter (fun l -> l.pid <> pid) !live;
        fail_with_log s "server exited during start-up (%s)" m
      end
      else if now () -. t0 > 60.0 then begin
        stop s;
        fail_with_log s "server did not answer within 60 s: %s" m
      end
      else begin
        Thread.delay 0.002;
        wait ()
      end
  in
  let setup = wait () in
  (s, setup)

(* Share of the window's requests that the server's own latency
   histogram ([stats] op) puts in its first bucket, at most 1 ms.  The
   histogram resolves nothing finer, so this is all it says about the
   fast (cache-hit) path; [before]/[after] give the window. *)
let served_within_1ms ~before ~after =
  let counts st =
    match Option.bind st (fun j -> Json.member "latency_ms" j) with
    | Some (Json.List bs) -> List.map (fun b -> num (Some b) [ "count" ]) bs
    | _ -> []
  in
  let start = counts before in
  let window =
    List.mapi
      (fun i c -> c -. Option.value ~default:0.0 (List.nth_opt start i))
      (counts after)
  in
  match window with
  | [] -> 0.0
  | first :: _ ->
    let total = List.fold_left ( +. ) 0.0 window in
    if total > 0.0 then first /. total else 0.0

(* ------------------------------------------------------------------ *)
(* Closed-loop clients *)

type client = {
  rng : Random.State.t;
  first : (int, string) Hashtbl.t;  (** population index -> first record *)
  ctx : Trace.ctx;
  mutable lat : (float * float) list;  (** (completion time, latency) *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable rpc_hit : float list;
  mutable rpc_miss : (int * float) list;  (** (population index, round trip) *)
}

let client ~seed tid =
  {
    rng = Random.State.make [| seed; tid; 0x57 |];
    first = Hashtbl.create 1024;
    ctx = Trace.create tid;
    lat = [];
    attempted = 0;
    failed = 0;
    problems = [];
    rpc_hit = [];
    rpc_miss = [];
  }

let reset c =
  c.lat <- [];
  c.attempted <- 0;
  c.failed <- 0;
  c.rpc_hit <- [];
  c.rpc_miss <- []

let problem c msg = if List.length c.problems < 5 then c.problems <- msg :: c.problems

(* One request through the public client calls, with a span around
   each: encode, connect, the round trip, and a re-parse of the reply
   that stands for the client's decoding cost. *)
let traced_call c ~socket ~label json =
  Trace.request c.ctx ~label (fun () ->
      let sp name f = Trace.span c.ctx name f in
      let line = sp "client.encode" (fun () -> Json.to_string (json ())) in
      let deadline = now () +. 60.0 in
      match sp "client.connect" (fun () -> Client.connect ~deadline socket) with
      | Error d -> (Error d, 0.0)
      | Ok conn ->
        Fun.protect
          ~finally:(fun () -> Client.close conn)
          (fun () ->
            let t0 = now () in
            let resp =
              sp "server.rpc" (fun () ->
                  Result.bind (Client.send_line conn line) (fun () ->
                      Client.recv_response ~deadline conn))
            in
            let rpc = now () -. t0 in
            (match resp with
            | Ok r ->
              let text = Json.to_string r in
              ignore (sp "client.decode" (fun () -> Json.of_string text))
            | Error _ -> ());
            (resp, rpc)))

(* Send [r] and account for the reply: latency, failures, and byte
   equality with every earlier record for the same request. *)
let one c ~socket ~traced (r : Gen.req) =
  let json () = synth_json r.idx r in
  let t0 = now () in
  let resp, rpc =
    if traced then traced_call c ~socket ~label:r.label json
    else (Client.call ~retry:once ~socket (json ()), 0.0)
  in
  let t1 = now () in
  c.attempted <- c.attempted + 1;
  match classify resp with
  | Served { record; cached } -> (
    c.lat <- (t1, t1 -. t0) :: c.lat;
    if traced then
      if cached then c.rpc_hit <- rpc :: c.rpc_hit
      else c.rpc_miss <- (r.idx, rpc) :: c.rpc_miss;
    match Hashtbl.find_opt c.first r.idx with
    | None -> Hashtbl.add c.first r.idx record
    | Some s -> if s <> record then problem c ("served records differ for " ^ r.label))
  | Refused m | Lost m ->
    c.failed <- c.failed + 1;
    problem c (r.label ^ ": " ^ m)

(* Run every client in its own thread until [stop] says so. *)
let drive clients ~stop body =
  List.map
    (fun c ->
      Thread.create
        (fun () ->
          while not (stop c) do
            body c
          done)
        ())
    clients
  |> List.iter Thread.join

(* ------------------------------------------------------------------ *)
(* The served probe: every traced run ends by serving a sample of its
   distinct requests through the sharded topology, twice through the
   router and twice straight to shard 0, checking each record against
   the locally verified one.  It measures the router hop (second-pass
   hits through the router minus hits at the shard) on every workload,
   and the client/server/router layers on the workloads that do not
   serve. *)

type probe = {
  pclient : client;
  p_before : Json.t option;
  p_after : Json.t option;
  router_hop_ms : float;
}

let probe ~(sample : Gen.req list) ~(expect : int -> string option) =
  let s, _ = launch ~tag:"probe" Sharded in
  Fun.protect
    ~finally:(fun () -> stop s)
    (fun () ->
      let c = client ~seed:0 9 in
      let before = stats s in
      let pass ~traced socket =
        List.map
          (fun r ->
            let t0 = now () in
            ignore (one c ~socket ~traced r);
            now () -. t0)
          sample
      in
      ignore (pass ~traced:true s.socket);
      let routed = pass ~traced:true s.socket in
      let shard0 = s.socket ^ ".0" in
      ignore (pass ~traced:false shard0);
      let direct = pass ~traced:false shard0 in
      let after = stats s in
      List.iter
        (fun (r : Gen.req) ->
          match (expect r.idx, Hashtbl.find_opt c.first r.idx) with
          | Some e, Some got when e <> got ->
            problem c ("probe record differs from the local one for " ^ r.label)
          | _ -> ())
        sample;
      {
        pclient = c;
        p_before = before;
        p_after = after;
        router_hop_ms = ms (median routed -. median direct);
      })
