type serve = {
  dpsyn : string;
  shards : int;
  workers : int;
  queue_depth : int;
  budget : Dp_fuzz.Budget.t;
  mem_watermark_mb : int option;
  cache_dir : string option;
  cache_capacity : int;
  no_cache : bool;
  tech_file : string option;
  crash_dir : string option;
  max_crashes : int;
  breaker_cooldown_s : float;
  guard_responses : bool;
  chaos : Chaos.config option;
  journal : string option;
  hedge : bool;
}

let default ~dpsyn =
  {
    dpsyn;
    shards = 0;
    workers = 2;
    queue_depth = 64;
    budget = { Dp_fuzz.Budget.default with timeout_s = 30.0 };
    mem_watermark_mb = None;
    cache_dir = None;
    cache_capacity = 256;
    no_cache = false;
    tech_file = None;
    crash_dir = None;
    max_crashes = Supervisor.default_policy.max_crashes;
    breaker_cooldown_s = Supervisor.default_policy.cooldown_s;
    guard_responses = false;
    chaos = None;
    journal = None;
    hedge = false;
  }

(* [dpsyn serve --chaos] runs the default stall and the fault list
   [Chaos.faults] of its --mem-chaos/--net-chaos flags. *)
let chaos_flags (c : Chaos.config) =
  let has = List.for_all (fun f -> List.mem f c.faults) in
  let mem = has Chaos.mem_faults and net = has Chaos.net_faults in
  if c.slow_s <> Chaos.default_config.slow_s || c.faults <> Chaos.faults ~mem ~net
  then invalid_arg "Exec.argv: dpsyn serve runs only Chaos.faults at the default slow_s";
  [ "--chaos"; "--chaos-every"; string_of_int c.every; "--chaos-seed"; string_of_int c.seed ]
  @ (if mem then [ "--mem-chaos" ] else [])
  @ if net then [ "--net-chaos" ] else []

let argv s ~socket_path =
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  let on flag b = if b then [ flag ] else [] in
  Array.of_list
    ([
       s.dpsyn; "serve";
       "--socket"; socket_path;
       "--workers"; string_of_int s.workers;
       "--queue-depth"; string_of_int s.queue_depth;
       "--timeout"; string_of_float s.budget.timeout_s;
       "--max-cells"; string_of_int s.budget.max_cells;
       "--max-rows"; string_of_int s.budget.max_rows;
       "--cache-capacity"; string_of_int s.cache_capacity;
       "--max-crashes"; string_of_int s.max_crashes;
       "--breaker-cooldown"; string_of_float s.breaker_cooldown_s;
     ]
    @ opt "--mem-watermark-mb" (Option.map string_of_int s.mem_watermark_mb)
    @ opt "--cache-dir" s.cache_dir
    @ on "--no-cache" s.no_cache
    @ opt "--tech" s.tech_file
    @ opt "--crash-dir" s.crash_dir
    @ on "--guard-responses" s.guard_responses
    @ (match s.chaos with Some c -> chaos_flags c | None -> [])
    @ (if s.shards >= 2 then [ "--shards"; string_of_int s.shards ] else [])
    @ opt "--journal" s.journal
    @ on "--hedge" s.hedge)

let server_config s ~socket_path ~tech ~log =
  {
    Server.socket_path;
    store =
      (if s.no_cache then None
       else Some (Dp_cache.Store.create ~capacity:s.cache_capacity ?dir:s.cache_dir ()));
    workers = s.workers;
    queue_depth = s.queue_depth;
    budget = s.budget;
    mem_watermark_words =
      Option.map (fun mb -> mb * 1024 * 1024 / (Sys.word_size / 8)) s.mem_watermark_mb;
    tech;
    log;
    supervisor =
      {
        Supervisor.default_policy with
        max_crashes = s.max_crashes;
        cooldown_s = s.breaker_cooldown_s;
      };
    crash_dir = s.crash_dir;
    chaos = s.chaos;
    guard_responses = s.guard_responses;
    handle_signals = false;
  }

let spawn argv = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
