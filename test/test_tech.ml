open Dp_tech
open Helpers

let test_cell_arity () =
  checki "fa" 3 (Cell_kind.arity Cell_kind.Fa);
  checki "ha" 2 (Cell_kind.arity Cell_kind.Ha);
  checki "and5" 5 (Cell_kind.arity (Cell_kind.And_n 5));
  checki "not" 1 (Cell_kind.arity Cell_kind.Not)

let test_cell_outputs () =
  checki "fa" 2 (Cell_kind.output_count Cell_kind.Fa);
  checki "xor" 1 (Cell_kind.output_count (Cell_kind.Xor_n 2))

let test_cell_equal () =
  checkb "fa=fa" true (Cell_kind.equal Cell_kind.Fa Cell_kind.Fa);
  checkb "and2<>and3" false
    (Cell_kind.equal (Cell_kind.And_n 2) (Cell_kind.And_n 3));
  checkb "fa<>ha" false (Cell_kind.equal Cell_kind.Fa Cell_kind.Ha)

let test_fa_delays () =
  let t = Tech.lcb_like in
  checkf "Ds" t.fa_sum_delay (Tech.delay t Cell_kind.Fa ~port:0);
  checkf "Dc" t.fa_carry_delay (Tech.delay t Cell_kind.Fa ~port:1);
  checkb "Dc < Ds" true (t.fa_carry_delay < t.fa_sum_delay)

let test_unit_delay_matches_fig2 () =
  let t = Tech.unit_delay in
  checkf "Ds=2" 2.0 (Tech.delay t Cell_kind.Fa ~port:0);
  checkf "Dc=1" 1.0 (Tech.delay t Cell_kind.Fa ~port:1)

let test_nary_gate_delay_is_log_depth () =
  let t = Tech.lcb_like in
  let d n = Tech.delay t (Cell_kind.And_n n) ~port:0 in
  checkf "and2: 1 level" t.and2_delay (d 2);
  checkf "and4: 2 levels" (2.0 *. t.and2_delay) (d 4);
  checkf "and5: 3 levels" (3.0 *. t.and2_delay) (d 5);
  checkf "and8: 3 levels" (3.0 *. t.and2_delay) (d 8)

let test_nary_gate_area_is_linear () =
  let t = Tech.lcb_like in
  checkf "and4 = 3 and2" (3.0 *. t.and2_area) (Tech.area t (Cell_kind.And_n 4))

let test_bad_port_raises () =
  Alcotest.check_raises "not port 1" (Invalid_argument "Tech.delay: bad output port")
    (fun () -> ignore (Tech.delay Tech.lcb_like Cell_kind.Not ~port:1));
  Alcotest.check_raises "energy port 2"
    (Invalid_argument "Tech.energy: bad output port") (fun () ->
      ignore (Tech.energy Tech.lcb_like Cell_kind.Fa ~port:2))

let test_energy_weights () =
  let t = Tech.lcb_like in
  checkf "Ws" t.fa_sum_energy (Tech.energy t Cell_kind.Fa ~port:0);
  checkf "Wc" t.fa_carry_energy (Tech.energy t Cell_kind.Fa ~port:1);
  (* Property 1's precondition 2*sqrt(Ws) >= sqrt(Wc) holds for the default
     technology *)
  checkb "2 sqrt Ws >= sqrt Wc" true
    (2.0 *. sqrt t.fa_sum_energy >= sqrt t.fa_carry_energy)

(* The fuzzed techs also show that [Tech.params] covers every field of
   [Tech.t]: [Gen.tech] is a record literal, so the compiler holds it to
   [Tech.t], and every field is random.  A field missing from the table
   would print nowhere and parse back as [unit_delay]'s value. *)
let test_tech_file_roundtrip () =
  let t = Tech.lcb_like in
  let t' = Tech_file.of_string (Tech_file.to_string t) in
  checkb "roundtrip" true (t = t');
  let rng = Random.State.make [| 28 |] in
  for _ = 1 to 50 do
    let t = Dp_fuzz.Gen.tech rng in
    checkb "fuzzed tech round-trips over unit_delay" true
      (Tech_file.of_string ~base:Tech.unit_delay (Tech_file.to_string t) = t)
  done

let test_tech_file_overrides () =
  let t = Tech_file.of_string "fa_sum_delay 9.5\nname custom\n" in
  checkf "override" 9.5 t.fa_sum_delay;
  checkb "name" true (String.equal t.name "custom");
  (* untouched keys inherit the base *)
  checkf "inherited" Tech.lcb_like.fa_carry_delay t.fa_carry_delay

let test_tech_file_comments_and_blanks () =
  let t = Tech_file.of_string "# a comment\n\nfa_area 99 # trailing\n" in
  checkf "fa_area" 99.0 t.fa_area

let test_tech_file_errors () =
  List.iter
    (fun bad ->
      match Tech_file.of_string bad with
      | (_ : Tech.t) -> Alcotest.failf "accepted %S" bad
      | exception Tech_file.Parse_error _ -> ())
    [
      "bogus_key 1.0";
      "fa_sum_delay notanumber";
      "fa_sum_delay";
      "fa_area -3";
      "fa_sum_delay nan";
      "fa_sum_delay inf";
      "xor2_delay -1";
      "gate_energy infinity";
      "counter_fusion nan";
    ]

let test_tech_file_custom_base () =
  let t = Tech_file.of_string ~base:Tech.unit_delay "fa_area 7\n" in
  checkf "base Ds" 2.0 t.fa_sum_delay;
  checkf "override" 7.0 t.fa_area

(* Each entry reads and updates its own field, feeds the cache key, and
   names itself in the validator's errors. *)
let test_params_entries () =
  let env = Dp_expr.Env.(empty |> add_uniform "x" ~width:4 |> add_uniform "y" ~width:4) in
  let expr = Dp_expr.Parse.expr "x*y" in
  let digest tech =
    Dp_cache.Key.digest (Dp_cache.Key.make ~tech Dp_flow.Strategy.Fa_aot env expr)
  in
  let base = Tech.lcb_like in
  let keys = List.map (fun (p : Tech.param) -> p.key) Tech.params in
  checki "distinct keys" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun (p : Tech.param) ->
      let v = 0.5 *. (p.read base +. 0.37) in
      let t = p.update base v in
      checkf (p.key ^ ": update sets its read") v (p.read t);
      List.iter
        (fun (q : Tech.param) ->
          if q.key <> p.key then
            checkf (p.key ^ " leaves " ^ q.key) (q.read base) (q.read t))
        Tech.params;
      checkb (p.key ^ ": name untouched") true (String.equal t.name base.name);
      checkb (p.key ^ ": moves the key digest") false (digest t = digest base);
      match Tech_file.of_string_res (p.key ^ " nan") with
      | Ok _ -> Alcotest.failf "%s nan accepted" p.key
      | Error { code; message; _ } ->
        check Alcotest.string (p.key ^ ": code") "DP-TECH001" code;
        checkb (p.key ^ ": named") true (contains ~needle:p.key message))
    Tech.params

let suite =
  [
    case "cell arity" test_cell_arity;
    case "cell output counts" test_cell_outputs;
    case "cell equality" test_cell_equal;
    case "FA delays (Ds, Dc)" test_fa_delays;
    case "unit_delay matches Fig. 2 (Ds=2, Dc=1)" test_unit_delay_matches_fig2;
    case "n-ary gate delay is tree depth" test_nary_gate_delay_is_log_depth;
    case "n-ary gate area is linear" test_nary_gate_area_is_linear;
    case "bad output ports raise" test_bad_port_raises;
    case "energy weights satisfy Property 1 precondition" test_energy_weights;
    case "tech file: roundtrip" test_tech_file_roundtrip;
    case "tech file: overrides + inheritance" test_tech_file_overrides;
    case "tech file: comments and blanks" test_tech_file_comments_and_blanks;
    case "tech file: malformed inputs rejected" test_tech_file_errors;
    case "tech file: custom base" test_tech_file_custom_base;
    case "params: each entry reads, updates, keys and validates its own"
      test_params_entries;
  ]
