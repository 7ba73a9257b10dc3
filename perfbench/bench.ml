(* dpsyn benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: catalog_cold, crypto_tall, serve_zipf.  With --trace 0 the
   result line carries the end-to-end metrics, with --trace 1 the
   per-layer ones.  The last line of standard output is the JSON result;
   lines before it starting with '#' are notes.  Exits 1 when any output
   is wrong. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload catalog_cold|crypto_tall|serve_zipf --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--probe" ] then Workloads.probe_child ()
  else if args = [ "--calibrate" ] then Util.calibrate_child ()
  else begin
    let rec parse acc = function
      | [] -> acc
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
    let workload = get "workload" in
    let seed = int "seed" and seconds = float_of_int (int "seconds") in
    let trace =
      match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
    in
    (* A signal from the caller still stops the servers this run started
       (at_exit runs the later registration first). *)
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
      [ Sys.sigterm; Sys.sigint ];
    at_exit Util.cleanup_run_dir;
    at_exit Served.stop_all;
    let library reqs ~trials =
      Workloads.run_library ~workload ~seed ~seconds ~trace ~trials reqs
    in
    let o =
      match workload with
      | "catalog_cold" -> library (Gen.catalog_cold ~seed) ~trials:32
      | "crypto_tall" -> library (Gen.crypto_tall ~seed) ~trials:8
      | "serve_zipf" ->
        Workloads.run_served ~workload ~seed ~seconds ~trace ~trials:32
      | _ -> usage ()
    in
    List.iter (fun n -> print_endline ("# " ^ n)) o.notes;
    Util.print_result ~correct:o.correct ~attempted:o.attempted ~failed:o.failed
      o.metrics;
    if not o.correct then exit 1
  end
