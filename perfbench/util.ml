(* Small helpers shared by the workloads: clocks, order statistics,
   process memory, scratch directories and the result line. *)

let now = Unix.gettimeofday
let ms s = s *. 1000.0

(* Linear-interpolated quantile of an unsorted sample; [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> nan
  | n ->
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Geometric mean over strictly positive values (others are skipped). *)
let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> nan
  | ys ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 ys
         /. float_of_int (List.length ys))

(* Peak resident set (VmHWM) of a process, in MiB; [None] when the
   process is gone or /proc is unavailable. *)
let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> Some (float_of_int kb /. 1024.0))
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

(* All run-time files live under this directory of the checkout; the
   per-process subdirectory is removed when the run ends. *)
let out_dir = ".perfbench"

let run_dir =
  lazy
    (let d = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
     mkdir_p d;
     d)

let cleanup_run_dir () = if Lazy.is_val run_dir then rm_rf (Lazy.force run_dir)

(* Wait for [pid] up to 20 s; SIGKILL it afterwards.  Returns once the
   process is reaped. *)
let reap pid =
  let deadline = now () +. 20.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Thread.delay 0.005;
        go ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error _ -> false

(* Machine speed.  Identical CPU work can take half as long again from
   one minute to the next on a shared machine, and whole runs move with
   it.  A fixed kernel (hashing and an in-place sort; no dpsyn code)
   runs every 100 ms and its CPU time is recorded, so timings can be
   scaled to a machine on which the kernel takes [kernel_nominal_s].
   CPU time, not wall time: a calibration process must not read the
   benchmark's own load as a slow machine.  The kernel allocates
   nothing, so run beside the requests in one process it does none of
   their garbage collection. *)
let kernel_buf = Array.make 6_144 0

let kernel () =
  let a = kernel_buf in
  for i = 0 to Array.length a - 1 do
    a.(i) <- (i * 7919) land 0xffff lxor (i lsr 3)
  done;
  Array.sort Int.compare a;
  Array.fold_left ( lxor ) 0 a

let kernel_nominal_s = 0.002

(* In-thread calibration, for a single-threaded workload: called between
   requests, it runs the kernel when 100 ms have passed since the last
   sample.  The kernel then runs on the core the requests run on; on a
   2-vCPU VM a calibration process on the other core tracked the
   requests' speed from second to second far less closely. *)
type sampler = { mutable next : float; mutable samples : (float * float) list }

let sampler () =
  ignore (Sys.opaque_identity (kernel ()));
  { next = 0.0; samples = [] }

let sample s =
  if now () >= s.next then begin
    let c0 = Sys.time () in
    ignore (Sys.opaque_identity (kernel ()));
    let k = Sys.time () -. c0 in
    let t = now () in
    s.samples <- (t, k) :: s.samples;
    s.next <- t +. 0.1
  end

(* The first run of the kernel in a fresh process is cold (page faults,
   caches) and is not reported. *)
let calibrate_child () =
  ignore (Sys.opaque_identity (kernel ()));
  let rec loop () =
    let t0 = Sys.time () in
    ignore (Sys.opaque_identity (kernel ()));
    Printf.printf "%.6f %.9f\n%!" (now ()) (Sys.time () -. t0);
    Unix.sleepf 0.1;
    loop ()
  in
  try loop () with Sys_error _ -> exit 0

type calibration = { cpid : int; cin : in_channel }

let start_calibration () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let cpid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  { cpid; cin = Unix.in_channel_of_descr rd }

(* Stop the calibration process; its samples as (time, kernel seconds). *)
let stop_calibration c =
  (try Unix.kill c.cpid Sys.sigterm with Unix.Unix_error _ -> ());
  reap c.cpid;
  let rec read acc =
    match input_line c.cin with
    | line -> read (Scanf.sscanf line "%f %f" (fun t k -> (t, k)) :: acc)
    | exception (End_of_file | Scanf.Scan_failure _ | Failure _) -> List.rev acc
  in
  let samples = read [] in
  close_in c.cin;
  samples

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* The result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
  in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
