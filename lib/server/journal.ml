type state = Admitted | Completed

type entry = { seq : int; digest : string; state : state; params : Json.t }

type stats = {
  appended : int;
  recovered : int;
  torn_bytes : int;
  compactions : int;
}

type t = {
  path : string;
  auto_compact_bytes : int;
  log : string -> unit;
  lock : Mutex.t;
  table : (int, entry) Hashtbl.t;
  recovered_entries : entry list;
  mutable oc : out_channel option;
  mutable next_seq : int;
  mutable size : int;
  mutable appended : int;
  mutable torn_bytes : int;
  mutable compactions : int;
}

let state_name = function Admitted -> "admitted" | Completed -> "completed"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* A record line is [<32-hex MD5 of payload> <payload>]; anything that
   does not round-trip the checksum is treated as a torn tail. *)
let checksum payload = Digest.to_hex (Digest.string payload)

let record_line payload_json =
  let payload = Json.to_string payload_json in
  checksum payload ^ " " ^ payload ^ "\n"

let payload_of_line line =
  if String.length line < 34 || line.[32] <> ' ' then None
  else
    let sum = String.sub line 0 32 in
    let payload = String.sub line 33 (String.length line - 33) in
    if String.equal (checksum payload) sum then Some payload else None

(* [params] rides on the admitted record only. *)
let record_payload ~seq ~digest ?params state =
  Json.Obj
    ([
       ("seq", Json.Int seq);
       ("state", Json.Str (state_name state));
       ("digest", Json.Str digest);
     ]
    @ match params with Some p -> [ ("params", p) ] | None -> [])

(* Fold one verified payload into the table.  Records appear in append
   order, so a completion always follows its admission (compaction
   preserves this).  Logs written before the journal had two states also
   hold a [dispatched] record after each admission; it carries nothing
   replay needs, so it is a good record that changes no entry. *)
let apply_payload table payload =
  match Json.of_string payload with
  | Error _ -> false
  | Ok json -> (
      let field k conv = Option.bind (Json.member k json) conv in
      match
        ( field "seq" Json.to_int,
          field "state" Json.to_str,
          field "digest" Json.to_str )
      with
      | Some seq, Some state, Some digest -> (
          match (state, Hashtbl.find_opt table seq) with
          | "admitted", None ->
              let params =
                Option.value (Json.member "params" json) ~default:Json.Null
              in
              Hashtbl.replace table seq { seq; digest; state = Admitted; params };
              true
          | "completed", Some e ->
              Hashtbl.replace table seq { e with state = Completed };
              true
          | ("admitted" | "completed" | "dispatched"), _ -> true
          | _ -> false)
      | _ -> false)

let sorted_entries table =
  Hashtbl.fold (fun _ e acc -> e :: acc) table []
  |> List.sort (fun a b -> compare a.seq b.seq)

(* Scan an existing log.  Returns the byte offset of the end of the last
   good record: a torn tail (no trailing newline, bad checksum, or
   unreadable payload) invalidates everything from the first bad record
   onward. *)
let scan_file path table =
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let len = String.length raw in
  let rec go pos =
    if pos >= len then pos
    else
      match String.index_from_opt raw pos '\n' with
      | None -> pos (* torn: final record never got its newline *)
      | Some nl -> (
          let line = String.sub raw pos (nl - pos) in
          match payload_of_line line with
          | None -> pos
          | Some payload -> if apply_payload table payload then go (nl + 1) else pos)
  in
  let good = go 0 in
  (good, len)

let open_ ?(auto_compact_bytes = 1_048_576) ?(log = ignore) ~dir () =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let path = Filename.concat dir "journal.log" in
  let table = Hashtbl.create 64 in
  let size, torn =
    if Sys.file_exists path then begin
      let good, len = scan_file path table in
      if good < len then begin
        Unix.truncate path good;
        log
          (Printf.sprintf "journal: truncated torn tail (%d bytes) at offset %d"
             (len - good) good)
      end;
      (good, len - good)
    end
    else (0, 0)
  in
  let recovered_entries = sorted_entries table in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path
  in
  {
    path;
    auto_compact_bytes;
    log;
    lock = Mutex.create ();
    table;
    recovered_entries;
    oc = Some oc;
    next_seq =
      1 + List.fold_left (fun acc e -> max acc e.seq) 0 recovered_entries;
    size;
    appended = 0;
    torn_bytes = torn;
    compactions = 0;
  }

let path t = t.path
let recovered t = t.recovered_entries
let entries t = locked t (fun () -> sorted_entries t.table)

let incomplete t =
  locked t (fun () ->
      sorted_entries t.table |> List.filter (fun e -> e.state <> Completed))

(* Call with [t.lock] held. *)
let compact_locked t =
  match t.oc with
  | None -> ()
  | Some oc ->
      let keep =
        sorted_entries t.table |> List.filter (fun e -> e.state <> Completed)
      in
      let tmp = Printf.sprintf "%s.tmp.%d" t.path (Unix.getpid ()) in
      let tmp_oc =
        open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
      in
      List.iter
        (fun e ->
          output_string tmp_oc
            (record_line
               (record_payload ~seq:e.seq ~digest:e.digest ~params:e.params
                  Admitted)))
        keep;
      close_out tmp_oc;
      close_out oc;
      Sys.rename tmp t.path;
      Hashtbl.reset t.table;
      List.iter (fun e -> Hashtbl.replace t.table e.seq e) keep;
      t.oc <-
        Some
          (open_out_gen
             [ Open_wronly; Open_creat; Open_append; Open_binary ]
             0o644 t.path);
      t.size <- (Unix.stat t.path).Unix.st_size;
      t.compactions <- t.compactions + 1;
      t.log
        (Printf.sprintf "journal: compacted to %d incomplete entries (%d bytes)"
           (List.length keep) t.size)

(* Call with [t.lock] held. *)
let append_locked t payload =
  match t.oc with
  | None -> ()
  | Some oc ->
      let line = record_line payload in
      output_string oc line;
      flush oc;
      t.size <- t.size + String.length line;
      t.appended <- t.appended + 1;
      if t.size > t.auto_compact_bytes then compact_locked t

let admit t ~digest ~params =
  locked t (fun () ->
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      Hashtbl.replace t.table seq { seq; digest; state = Admitted; params };
      append_locked t (record_payload ~seq ~digest ~params Admitted);
      seq)

let complete t ~seq =
  locked t (fun () ->
      match Hashtbl.find_opt t.table seq with
      | Some e when e.state <> Completed ->
          Hashtbl.replace t.table seq { e with state = Completed };
          append_locked t (record_payload ~seq ~digest:e.digest Completed)
      | Some _ | None -> ())

let compact t = locked t (fun () -> compact_locked t)

let stats t =
  locked t (fun () ->
      {
        appended = t.appended;
        recovered = List.length t.recovered_entries;
        torn_bytes = t.torn_bytes;
        compactions = t.compactions;
      })

let close t =
  locked t (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
          close_out oc;
          t.oc <- None)
