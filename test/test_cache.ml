(* The caching layer: canonicalizer soundness, key/digest stability, LRU
   behaviour, the on-disk store's corruption defenses, and the central
   serving property — a cache hit is byte-identical to fresh synthesis. *)

open Helpers
module C = Dp_cache
module Fz = Dp_fuzz
module Ast = Dp_expr.Ast
module Env = Dp_expr.Env

let e = Dp_expr.Parse.expr

let env_xyz =
  Env.empty
  |> Env.add_uniform "x" ~width:8
  |> Env.add_uniform "y" ~width:8
  |> Env.add_uniform "z" ~width:8

(* ------------------------------------------------------------------ *)
(* Canonicalizer *)

(* Random fuzzer expressions: the canonical form must evaluate exactly
   like the original for random assignments (exact native-int evaluation;
   commutativity/associativity hold over the wrap-around ring, so this is
   the modulo-2^W property for every W at once). *)
let canon_eval_equivalent () =
  let rng = Random.State.make [| 2026 |] in
  for i = 0 to 199 do
    let case = Fz.Gen.case rng i in
    match Fz.Case.single_port case with
    | None -> ()
    | Some (expr, _) ->
      let canon = C.Canon.canonicalize expr in
      for _ = 1 to 20 do
        let assignment =
          List.map
            (fun (v : Fz.Case.var_spec) ->
              (v.name, Random.State.int rng (1 lsl min v.width 20)))
            case.vars
        in
        let a = Dp_expr.Eval.eval_alist assignment expr in
        let b = Dp_expr.Eval.eval_alist assignment canon in
        if a <> b then
          Alcotest.failf "case %d: %s evaluates to %d, canonical %s to %d" i
            (Ast.to_string expr) a (Ast.to_string canon) b
      done
  done

let canon_idempotent () =
  let rng = Random.State.make [| 7 |] in
  for i = 0 to 199 do
    let case = Fz.Gen.case rng i in
    match Fz.Case.single_port case with
    | None -> ()
    | Some (expr, _) ->
      let once = C.Canon.canonicalize expr in
      let twice = C.Canon.canonicalize once in
      if once <> twice then
        Alcotest.failf "case %d not idempotent: %s -> %s -> %s" i
          (Ast.to_string expr) (Ast.to_string once) (Ast.to_string twice)
  done

(* The netlist synthesized from the canonical form still computes the
   original expression — the end-to-end soundness the cache rests on. *)
let canon_netlist_equivalent () =
  List.iter
    (fun src ->
      let expr = e src in
      let canon = C.Canon.canonicalize expr in
      let width = Dp_expr.Range.natural_width env_xyz canon in
      let r = Dp_flow.Synth.run ~width Dp_flow.Strategy.Fa_aot env_xyz canon in
      match
        Dp_sim.Equiv.check_random ~trials:200 r.netlist expr ~output:r.output
          ~width:r.width
      with
      | Ok () -> ()
      | Error m ->
        Alcotest.failf "%s (canonical %s): %a" src (Ast.to_string canon)
          Dp_sim.Equiv.pp_mismatch m)
    [
      "x + y - z";
      "z*y + y*x - 3*z";
      "x - y - z + y*y";
      "0 - x + 5*z - y*x";
      "(x + y)*(z - y) + x^2";
    ]

let canon_merges_reorderings () =
  List.iter
    (fun (a, b) ->
      let ca = C.Canon.canonicalize (e a) and cb = C.Canon.canonicalize (e b) in
      if ca <> cb then
        Alcotest.failf "%s and %s canonicalize apart: %s vs %s" a b
          (Ast.to_string ca) (Ast.to_string cb))
    [
      ("x + y", "y + x");
      ("x*y + z", "z + y*x");
      ("x + y - z", "0 - z + y + x");
      ("2*x*y", "y*2*x");
      ("x - y", "0 - y + x");
      ("x + 0", "x");
      ("1*x*y", "y*x");
    ]

(* ------------------------------------------------------------------ *)
(* Keys and digests *)

let key ?width ?(strategy = Dp_flow.Strategy.Fa_aot) ?adder ?(env = env_xyz) src =
  C.Key.make ?width ?adder strategy env (e src)

let digest_stable_across_reorder () =
  check Alcotest.string "operand order" (C.Key.digest (key "x*y + z - x"))
    (C.Key.digest (key "z - x + y*x"));
  check Alcotest.string "explicit width" (C.Key.digest (key ~width:12 "x + y"))
    (C.Key.digest (key ~width:12 "y + x"))

let digest_separates_requests () =
  let d = C.Key.digest in
  checkb "distinct exprs" true (d (key "x + y") <> d (key "x * y"));
  checkb "strategy matters" true
    (d (key "x + y") <> d (key ~strategy:Dp_flow.Strategy.Dadda "x + y"));
  checkb "adder matters" true
    (d (key "x + y") <> d (key ~adder:Dp_adders.Adder.Ripple "x + y"));
  checkb "width matters" true (d (key "x + y") <> d (key ~width:4 "x + y"));
  (* the arrival profile is part of the key: same expr, different timing *)
  let late =
    Env.empty
    |> Env.add_uniform "x" ~width:8 ~arrival:3.0
    |> Env.add_uniform "y" ~width:8
    |> Env.add_uniform "z" ~width:8
  in
  checkb "arrival profile matters" true
    (d (key "x + y") <> d (key ~env:late "x + y"));
  (* ... but only variables the expression references count *)
  let extra = Env.add_uniform "unused" ~width:4 env_xyz in
  check Alcotest.string "unused bindings ignored" (d (key "x + y"))
    (d (key ~env:extra "x + y"))

(* ------------------------------------------------------------------ *)
(* In-memory LRU *)

let outcome ?store src =
  match C.Serve.run ?store (C.Serve.request env_xyz (e src)) with
  | Ok o -> o
  | Error d -> Alcotest.failf "%s: %s" src (Dp_diag.Diag.to_string d)

let lru_evicts_in_order () =
  let store = C.Store.create ~capacity:2 () in
  let o1 = outcome ~store "x + 1" in
  let o2 = outcome ~store "x + 2" in
  let o3 = outcome ~store "x + 3" in
  (* capacity 2: the oldest (o1) is gone, o3 is most recent *)
  check
    Alcotest.(list string)
    "after 3 inserts" [ o3.digest; o2.digest ]
    (C.Store.mem_digests store);
  checki "evictions" 1 (C.Store.stats store).evictions;
  (* a hit refreshes recency: touch o2, insert o4, o3 is the victim *)
  let o2' = outcome ~store "x + 2" in
  checkb "o2 served from cache" true o2'.cached;
  let o4 = outcome ~store "x + 4" in
  check
    Alcotest.(list string)
    "LRU victim is the stale entry" [ o4.digest; o2.digest ]
    (C.Store.mem_digests store);
  (* the evicted entry synthesizes again as a miss *)
  let o1' = outcome ~store "x + 1" in
  checkb "evicted entry is a miss" false o1'.cached;
  check Alcotest.string "same digest either way" o1.digest o1'.digest

(* ------------------------------------------------------------------ *)
(* On-disk store *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dpsyn-cache-test-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let disk_round_trip () =
  with_tmpdir @@ fun dir ->
  let store1 = C.Store.create ~dir () in
  let fresh = outcome ~store:store1 "x*y + z" in
  (* a brand-new store over the same directory: cold memory, warm disk *)
  let store2 = C.Store.create ~dir () in
  let reloaded = outcome ~store:store2 "z + y*x" in
  checkb "served from disk" true reloaded.cached;
  checki "disk hit counted" 1 (C.Store.stats store2).disk_hits;
  check Alcotest.string "digest" fresh.digest reloaded.digest;
  check Alcotest.string "verilog byte-identical" fresh.verilog reloaded.verilog;
  (* promoted into memory: the next lookup is a memory hit *)
  let again = outcome ~store:store2 "x*y + z" in
  checkb "promoted" true again.cached;
  checki "memory hit" 1 (C.Store.stats store2).hits

let corrupt_entry_degrades_to_miss () =
  with_tmpdir @@ fun dir ->
  let store1 = C.Store.create ~dir () in
  let _ = outcome ~store:store1 "x*y + z" in
  let path =
    (* ignore the advisory .lock files the cross-process write
       discipline leaves behind; only the entry itself matters *)
    match
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".dpc")
    with
    | [ name ] -> Filename.concat dir name
    | files -> Alcotest.failf "expected 1 cache entry, found %d" (List.length files)
  in
  (* flip one byte in the marshalled body: the checksum must catch it *)
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let i = Bytes.length bytes - 10 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x55));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
  let store2 = C.Store.create ~dir () in
  let o = outcome ~store:store2 "x*y + z" in
  checkb "resynthesized" false o.cached;
  checki "corruption counted" 1 (C.Store.stats store2).corrupt;
  (* the re-synthesis overwrote the bad file; a third store reads it fine *)
  let store3 = C.Store.create ~dir () in
  checkb "healed" true (outcome ~store:store3 "x*y + z").cached

let garbage_file_degrades_to_miss () =
  with_tmpdir @@ fun dir ->
  let store1 = C.Store.create ~dir () in
  let good = outcome ~store:store1 "x + y" in
  let path = Filename.concat dir (good.digest ^ ".dpc") in
  Out_channel.with_open_bin path (fun oc -> output_string oc "not a cache entry");
  let store2 = C.Store.create ~dir () in
  checkb "garbage is a miss" false (outcome ~store:store2 "x + y").cached;
  checki "counted" 1 (C.Store.stats store2).corrupt

(* An entry written under an older format version keeps a valid body and
   checksum, but its marshalled types may have changed since: it must be
   rejected on the version line alone, never unmarshalled. *)
let old_format_version_is_corrupt () =
  with_tmpdir @@ fun dir ->
  let k = C.Key.make Dp_flow.Strategy.Fa_aot env_xyz (e "x*y + z") in
  let o = outcome ~store:(C.Store.create ~dir ()) "x*y + z" in
  check Alcotest.string "entry filed under the key" (C.Key.digest k) o.digest;
  let path = Filename.concat dir (o.digest ^ ".dpc") in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let eol = String.index raw '\n' in
  check Alcotest.string "current version" "dpsyn-cache/4" (String.sub raw 0 eol);
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "dpsyn-cache/3";
      output_string oc (String.sub raw eol (String.length raw - eol)));
  let r = C.Store.fsck ~dir () in
  checki "fsck: corrupt" 1 r.C.Store.fsck_corrupt;
  checki "fsck: valid" 0 r.C.Store.valid;
  let store = C.Store.create ~dir () in
  checkb "find misses" true (Option.is_none (C.Store.find store k));
  checki "counted as corrupt" 1 (C.Store.stats store).corrupt;
  checkb "file removed" false (Sys.file_exists path)

(* A structurally corrupt netlist that survives the checksum (it was
   checksummed after corruption) must still be rejected — by lint. *)
let lint_rejects_corrupt_netlist () =
  with_tmpdir @@ fun dir ->
  let o = outcome "x*y + z" in
  let k = C.Key.make Dp_flow.Strategy.Fa_aot env_xyz (e "x*y + z") in
  (match Dp_verify.Inject.apply ~seed:3 o.result.netlist Dp_verify.Inject.Drop_gate with
  | Some _ -> ()
  | None -> Alcotest.fail "no injection site");
  let writer = C.Store.create ~dir () in
  C.Store.add writer k
    {
      C.Store.fingerprint = C.Key.fingerprint k;
      result = o.result;
      verilog = o.verilog;
    };
  let store = C.Store.create ~dir () in
  let served = outcome ~store "x*y + z" in
  checkb "lint-rejected entry resynthesizes" false served.cached;
  checki "counted as corrupt" 1 (C.Store.stats store).corrupt

(* A disk read runs outside the store's lock.  While one thread is stuck
   opening key B's entry (a FIFO that no one writes yet), a lookup of key
   A, which is in memory, answers at once.  Opening the FIFO for writing
   then lets the stuck read finish, on an empty and so corrupt entry. *)
let disk_read_leaves_memory_hits_free () =
  with_tmpdir @@ fun dir ->
  let store = C.Store.create ~dir () in
  let a = outcome ~store "x + y" in
  let fifo = Filename.concat dir (C.Key.digest (key "x*y + z") ^ ".dpc") in
  Unix.mkfifo fifo 0o600;
  let reader = Thread.create (fun () -> C.Store.find store (key "x*y + z")) () in
  Thread.delay 0.1;
  let t0 = Unix.gettimeofday () in
  let hit = Atomic.make None in
  let hitter =
    Thread.create
      (fun () ->
        let found = C.Store.find store (key "x + y") in
        Atomic.set hit (Some (found, Unix.gettimeofday () -. t0)))
      ()
  in
  while Atomic.get hit = None && Unix.gettimeofday () -. t0 < 1.0 do
    Thread.delay 0.01
  done;
  (* Release the reader: a non-blocking open succeeds once it waits on
     the FIFO. *)
  let rec release () =
    match Unix.openfile fifo [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
    | fd -> Unix.close fd
    | exception Unix.Unix_error (Unix.ENXIO, _, _)
      when Unix.gettimeofday () -. t0 < 10.0 ->
      Thread.delay 0.01;
      release ()
  in
  release ();
  Thread.join hitter;
  Thread.join reader;
  (match Atomic.get hit with
  | Some (Some entry, s) ->
    checkb "the memory hit did not wait for the disk read" true (s < 1.0);
    check Alcotest.string "A's entry" a.verilog entry.C.Store.verilog
  | _ -> Alcotest.fail "A missed");
  checki "the released read counts one corrupt entry" 1 (C.Store.stats store).corrupt;
  checkb "and removes it" false (Sys.file_exists fifo)

(* ------------------------------------------------------------------ *)
(* Serving: cached == fresh, byte for byte *)

let serve_request ?width ~strategy ~adder src =
  C.Serve.request ~width ~strategy ~adder env_xyz (e src)

let cached_identical_to_fresh () =
  let store = C.Store.create () in
  List.iter
    (fun strategy ->
      List.iter
        (fun adder ->
          let r = serve_request ~strategy ~adder "x*y + z - y" in
          let fresh, cached =
            match (C.Serve.run ~store r, C.Serve.run ~store r) with
            | Ok a, Ok b -> (a, b)
            | Error d, _ | _, Error d ->
              Alcotest.fail (Dp_diag.Diag.to_string d)
          in
          let label =
            Printf.sprintf "%s/%s"
              (Dp_flow.Strategy.name strategy)
              (Dp_adders.Adder.name adder)
          in
          checkb (label ^ " first is fresh") false fresh.cached;
          checkb (label ^ " second is cached") true cached.cached;
          check Alcotest.string (label ^ " verilog") fresh.verilog cached.verilog;
          (* ... and both match a direct Synth.run of the canonical form *)
          let direct =
            Dp_flow.Synth.run ~adder ~width:fresh.width strategy env_xyz
              (C.Canon.canonicalize (e "x*y + z - y"))
          in
          check Alcotest.string
            (label ^ " matches direct synthesis")
            (Dp_netlist.Verilog.emit direct.netlist)
            cached.verilog)
        Dp_adders.Adder.all)
    Dp_flow.Strategy.all

(* Requests that differ only by operand order share one entry. *)
let canonical_class_shares_entry () =
  let store = C.Store.create () in
  let first = outcome ~store "x + y*z" in
  let second = outcome ~store "z*y + x" in
  checkb "reordered request hits" true second.cached;
  check Alcotest.string "same digest" first.digest second.digest;
  check Alcotest.string "same verilog" first.verilog second.verilog;
  checki "one entry" 1 (C.Store.stats store).entries

let suite =
  [
    case "canon: eval-equivalent on random exprs" canon_eval_equivalent;
    case "canon: idempotent" canon_idempotent;
    case "canon: netlist still computes the original" canon_netlist_equivalent;
    case "canon: reorderings merge" canon_merges_reorderings;
    case "key: digest stable across operand reorder" digest_stable_across_reorder;
    case "key: digest separates distinct requests" digest_separates_requests;
    case "store: LRU evicts in recency order" lru_evicts_in_order;
    case "store: disk round-trip" disk_round_trip;
    case "store: corrupt entry degrades to miss" corrupt_entry_degrades_to_miss;
    case "store: garbage file degrades to miss" garbage_file_degrades_to_miss;
    case "store: lint rejects corrupt netlist" lint_rejects_corrupt_netlist;
    case "serve: cached identical to fresh (all strategies x adders)"
      cached_identical_to_fresh;
    case "serve: canonical class shares one entry" canonical_class_shares_entry;
    case "store: older format version degrades to miss"
      old_format_version_is_corrupt;
    case "store: a disk read leaves memory hits free"
      disk_read_leaves_memory_hits_free;
  ]
