open Dp_expr
open Helpers

(* ------------------------------------------------------------------ *)
(* Parser *)

let parse_roundtrip input expected () =
  checkb input true (Ast.equal (Parse.expr input) expected)

let test_parse_var = parse_roundtrip "x" (Ast.Var "x")
let test_parse_const = parse_roundtrip "42" (Ast.Const 42)

let test_parse_precedence =
  parse_roundtrip "a + b*c" Ast.(Add (Var "a", Mul (Var "b", Var "c")))

let test_parse_assoc =
  parse_roundtrip "a - b - c" Ast.(Sub (Sub (Var "a", Var "b"), Var "c"))

let test_parse_paren =
  parse_roundtrip "(a + b)*c" Ast.(Mul (Add (Var "a", Var "b"), Var "c"))

let test_parse_pow = parse_roundtrip "x^2" (Ast.Pow (Ast.Var "x", 2))

let test_parse_pow_binds_tighter =
  parse_roundtrip "2*x^3" Ast.(Mul (Const 2, Pow (Var "x", 3)))

let test_parse_neg =
  parse_roundtrip "-x + y" Ast.(Add (Neg (Var "x"), Var "y"))

let test_parse_neg_mul =
  parse_roundtrip "-x*y" Ast.(Mul (Neg (Var "x"), Var "y"))

let test_parse_whitespace =
  parse_roundtrip "  a  +\n\tb " Ast.(Add (Var "a", Var "b"))

let test_parse_idct () =
  let e = Parse.expr "4096*f0 + 4017*f1 + 3784*f2" in
  checki "three vars" 3 (List.length (Ast.vars e))

let test_parse_error_unbalanced () =
  checkb "unbalanced" true (Parse.expr_opt "(a + b" = None)

let test_parse_error_trailing () =
  checkb "trailing" true (Parse.expr_opt "a + b)" = None)

let test_parse_error_empty () = checkb "empty" true (Parse.expr_opt "" = None)

let test_parse_error_bad_pow () =
  checkb "pow needs int" true (Parse.expr_opt "x^y" = None)

let test_parse_error_char () = checkb "bad char" true (Parse.expr_opt "a % b" = None)

let test_print_parse_roundtrip () =
  List.iter
    (fun s ->
      let e = Parse.expr s in
      let e' = Parse.expr (Ast.to_string e) in
      checkb (Printf.sprintf "roundtrip %s" s) true (Ast.equal e e'))
    [
      "x + y - z + x*y - y*z + 10";
      "x^2 + 2*x*y + y^2 + 2*x + 2*y + 1";
      "-(a - b)*(c + d) - 7";
      "a*b*c - (a + 1)^3";
    ]

(* ------------------------------------------------------------------ *)
(* Programs *)

let test_program_inlines_bindings () =
  let outputs = Parse.program "t = a + b; out = t*t" in
  checki "one output" 1 (List.length outputs);
  let _, e = List.hd outputs in
  checki "value" 36 (Eval.eval_alist [ ("a", 2); ("b", 4) ] e);
  checkb "t is gone" true (not (List.mem "t" (Ast.vars e)))

let test_program_multiple_outputs () =
  let outputs = Parse.program "s = a + b; d = a - b; p = a*b" in
  check (Alcotest.list Alcotest.string) "names" [ "s"; "d"; "p" ]
    (List.map fst outputs)

let test_program_chained_bindings () =
  let outputs = Parse.program "t = x + 1; u = t*t; out = u + t" in
  checki "one output" 1 (List.length outputs);
  let _, e = List.hd outputs in
  (* (x+1)^2 + (x+1) at x=3 -> 16 + 4 = 20 *)
  checki "value" 20 (Eval.eval_alist [ ("x", 3) ] e)

let test_program_trailing_semicolon_rejected () =
  checkb "dangling" true
    (match Parse.program "a = x;" with
    | _ -> true (* trailing ';' then EOF: no further statement, fine *)
    | exception Parse.Error _ -> true)

let test_program_errors () =
  List.iter
    (fun bad ->
      match Parse.program bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Parse.Error _ -> ())
    [ ""; "= x"; "a = "; "a = x; a = y"; "a = x b = y" ]

let test_subst () =
  let e = Parse.expr "x*x + y" in
  let e' = Ast.subst (fun v -> if v = "x" then Some (Parse.expr "z + 1") else None) e in
  checki "substituted" ((5 + 1) * (5 + 1) + 2)
    (Eval.eval_alist [ ("z", 5); ("y", 2) ] e')

(* ------------------------------------------------------------------ *)
(* Eval *)

let test_eval_basic () =
  let e = Parse.expr "x^2 + 2*x*y + y^2" in
  let v = Eval.eval_alist [ ("x", 3); ("y", 4) ] e in
  checki "(3+4)^2" 49 v

let test_eval_neg () =
  checki "5-9" (-4) (Eval.eval_alist [ ("a", 5); ("b", 9) ] (Parse.expr "a - b"))

let test_eval_mod_wraps () =
  let e = Parse.expr "a - b" in
  let v = Eval.eval_mod ~width:4 (assign_of [ ("a", 1); ("b", 2) ]) e in
  checki "-1 mod 16" 15 v

let test_eval_mask () =
  checki "mask 5" 31 (Eval.mask 5);
  Alcotest.check_raises "mask 0" (Invalid_argument "Eval.mask: width out of [1,62]")
    (fun () -> ignore (Eval.mask 0))

let test_vars () =
  let e = Parse.expr "b*a + a - c" in
  check (Alcotest.list Alcotest.string) "sorted vars" [ "a"; "b"; "c" ] (Ast.vars e)

(* ------------------------------------------------------------------ *)
(* Env *)

let test_env_defaults () =
  let env = Env.add_uniform "x" ~width:4 Env.empty in
  checkf "arrival" 0.0 (Env.arrival "x" ~bit:2 env);
  checkf "prob" 0.5 (Env.prob "x" ~bit:0 env)

let test_env_duplicate_ok () =
  (* re-adding replaces (Map semantics) *)
  let env =
    Env.empty |> Env.add_uniform "x" ~width:4 |> Env.add_uniform "x" ~width:7
  in
  checki "width" 7 (Env.width "x" env)

let test_env_validation () =
  Alcotest.check_raises "bad prob" (Invalid_argument "Env.add: prob out of [0,1]")
    (fun () ->
      ignore (Env.add "x" ~width:1 ~prob:[| 1.5 |] Env.empty));
  List.iter
    (fun p ->
      Alcotest.check_raises (Fmt.str "prob %g" p)
        (Invalid_argument "Env.add: prob out of [0,1]") (fun () ->
          ignore (Env.add "x" ~width:2 ~prob:[| 0.5; p |] Env.empty)))
    [ Float.nan; -0.1; Float.infinity ];
  List.iter
    (fun a ->
      Alcotest.check_raises (Fmt.str "arrival %g" a)
        (Invalid_argument "Env.add: arrival must be finite and >= 0") (fun () ->
          ignore (Env.add "x" ~width:2 ~arrival:[| 0.0; a |] Env.empty));
      checkb
        (Fmt.str "arrival %g is DP-ENV002" a)
        true
        (match Env.add_res "x" ~width:1 ~arrival:[| a |] Env.empty with
        | Error d -> d.Dp_diag.Diag.code = "DP-ENV002"
        | Ok _ -> false))
    [ Float.nan; Float.infinity; Float.neg_infinity; -5.0 ];
  Alcotest.check_raises "bad width" (Invalid_argument "Env.add: width must be >= 1")
    (fun () -> ignore (Env.add_uniform "x" ~width:0 Env.empty))

let test_env_check_covers () =
  let env = Env.add_uniform "x" ~width:4 Env.empty in
  Alcotest.check_raises "unbound y"
    (Invalid_argument "Env.check_covers: y has no binding") (fun () ->
      Env.check_covers (Parse.expr "x + y") env)

(* ------------------------------------------------------------------ *)
(* Range *)

let test_range_var () =
  let env = Env.add_uniform "x" ~width:4 Env.empty in
  let r = Range.of_expr env (Ast.Var "x") in
  checki "lo" 0 (r : Range.t).lo;
  checki "hi" 15 r.hi

let test_range_sub_negative () =
  let env = Env.of_widths [ ("x", 4); ("y", 4) ] in
  let r = Range.of_expr env (Parse.expr "x - y") in
  checki "lo" (-15) (r : Range.t).lo;
  checki "hi" 15 r.hi;
  checki "two's complement width" 5 (Range.width r)

let test_range_mul () =
  let env = Env.of_widths [ ("x", 3); ("y", 3) ] in
  let r = Range.of_expr env (Parse.expr "x*y") in
  checki "hi" 49 (r : Range.t).hi;
  checki "width" 6 (Range.width r)

let test_range_natural_widths () =
  let env = Env.of_widths [ ("x", 8); ("y", 8) ] in
  checki "x^2+x+y" 16 (Range.natural_width env (Parse.expr "x^2 + x + y"));
  checki "(x+y+1)^2" 18
    (Range.natural_width env (Parse.expr "x^2 + 2*x*y + y^2 + 2*x + 2*y + 1"))

let test_range_const_zero () =
  checki "width of 0" 1 (Range.width (Range.const 0));
  checki "width of -1" 1 (Range.width (Range.const (-1)));
  checki "width of -2" 2 (Range.width (Range.const (-2)))

(* Bounds saturate instead of wrapping, and stay saturated through later
   operations. *)
let test_range_saturates () =
  let env = Env.of_widths [ ("hi", 32); ("x", 8) ] in
  let range src = Range.of_expr env (Parse.expr src) in
  let r = range "4294968273*hi" in
  checki "lo" 0 (r : Range.t).lo;
  checki "hi saturates" max_int r.hi;
  checki "stays unbounded above" max_int (range "4294968273*hi - 1099511627776*x").hi;
  checki "negation is unbounded below" min_int (range "x - 4294968273*hi").lo;
  let r = range "(x - 4294968273*hi) * (x - 4294968273*hi)" in
  checki "square of an unbounded range" max_int (r : Range.t).hi;
  checki "times zero is exact" 0 (range "(4294968273*hi) * 0").hi

(* Widths of ranges past 2^61 terminate; the natural width caps at 62. *)
let test_range_wide_widths () =
  checki "[0, max_int]" 62 (Range.width (Range.make 0 max_int));
  checki "[0, 2^61]" 62 (Range.width (Range.make 0 (1 lsl 61)));
  checki "[min_int, 0]" 63 (Range.width (Range.make min_int 0));
  let natural src w =
    Range.natural_width (Env.of_widths [ ("x", w) ]) (Parse.expr src)
  in
  checki "2^32*x, x:20" 52 (natural "4294967296*x" 20);
  checki "2^32*x, x:30" 62 (natural "4294967296*x" 30);
  checki "2^32*x, x:32 caps" 62 (natural "4294967296*x" 32);
  checki "negative past 2^62 caps" 62 (natural "0 - 4294967296*x*x" 32)

(* ------------------------------------------------------------------ *)
(* Sop *)

let test_sop_expand_square () =
  let sop = Sop.of_expr (Parse.expr "(x + y)^2") in
  let terms = Sop.terms sop in
  checki "3 terms" 3 (List.length terms);
  checki "xy coeff" 2 (List.assoc [ "x"; "y" ] terms);
  checki "x^2 coeff" 1 (List.assoc [ "x"; "x" ] terms)

let test_sop_cancellation () =
  let sop = Sop.of_expr (Parse.expr "x*y - y*x") in
  checki "cancelled" 0 (Sop.term_count sop)

let test_sop_constant_folding () =
  let sop = Sop.of_expr (Parse.expr "3*7 - 1") in
  checki "constant" 20 (Sop.constant sop);
  checki "single term" 1 (Sop.term_count sop)

let test_sop_eval_matches_ast () =
  List.iter
    (fun s ->
      let e = Parse.expr s in
      let assign = assign_of [ ("x", 5); ("y", 3); ("z", 11) ] in
      checki s (Eval.eval assign e) (Sop.eval assign (Sop.of_expr e)))
    [
      "x + y - z + x*y - y*z + 10";
      "(x - y)*(y - z)*(z - x)";
      "x^3 - 3*x^2 + 3*x - 1";
      "-(x + y)*(x - y) + x^2";
    ]

let test_sop_to_expr_roundtrip () =
  let e = Parse.expr "(x - 2)*(x + 3)" in
  let back = Sop.to_expr (Sop.of_expr e) in
  let assign = assign_of [ ("x", 9) ] in
  checki "same value" (Eval.eval assign e) (Eval.eval assign back)

let test_sop_degree () =
  checki "degree" 4 (Sop.max_degree (Sop.of_expr (Parse.expr "x^2*y^2 + x*y")))

(* ------------------------------------------------------------------ *)
(* Csd *)

let test_csd_values () =
  List.iter
    (fun n -> checki (string_of_int n) n (Csd.value (Csd.recode n)))
    [ 0; 1; -1; 7; -7; 255; 1567; 4096; -4017; 12345; max_int / 4; min_int; max_int ]

let test_csd_canonical () =
  List.iter
    (fun n ->
      checkb (string_of_int n) true (Csd.is_canonical (Csd.recode n)))
    [ 3; 7; 11; 23; 255; 1567; -3406; 9999 ]

let test_csd_beats_binary () =
  (* 255 = 2^8 - 2^0: two digits instead of eight *)
  checki "csd 255" 2 (Csd.nonzero_count (Csd.recode 255));
  checki "binary 255" 8 (Csd.nonzero_count (Csd.binary 255))

let test_csd_never_worse () =
  for n = -512 to 512 do
    let csd = Csd.nonzero_count (Csd.recode n) in
    let bin = Csd.nonzero_count (Csd.binary n) in
    if csd > bin then Alcotest.failf "CSD worse than binary at %d" n
  done

let test_binary_values () =
  List.iter
    (fun n -> checki (string_of_int n) n (Csd.value (Csd.binary n)))
    [ 0; 1; -1; 6; -6; 100; -4017; min_int; min_int + 1; max_int ]

let suite =
  [
    case "parse: variable" test_parse_var;
    case "parse: constant" test_parse_const;
    case "parse: * binds tighter than +" test_parse_precedence;
    case "parse: - is left-associative" test_parse_assoc;
    case "parse: parentheses" test_parse_paren;
    case "parse: power" test_parse_pow;
    case "parse: power binds tighter than *" test_parse_pow_binds_tighter;
    case "parse: unary minus" test_parse_neg;
    case "parse: unary minus under *" test_parse_neg_mul;
    case "parse: whitespace" test_parse_whitespace;
    case "parse: idct row" test_parse_idct;
    case "parse: error on unbalanced paren" test_parse_error_unbalanced;
    case "parse: error on trailing paren" test_parse_error_trailing;
    case "parse: error on empty input" test_parse_error_empty;
    case "parse: error on symbolic exponent" test_parse_error_bad_pow;
    case "parse: error on bad character" test_parse_error_char;
    case "parse: print/parse roundtrip" test_print_parse_roundtrip;
    case "program: inlines bindings" test_program_inlines_bindings;
    case "program: multiple outputs" test_program_multiple_outputs;
    case "program: chained bindings" test_program_chained_bindings;
    case "program: trailing semicolon tolerated or rejected" test_program_trailing_semicolon_rejected;
    case "program: malformed inputs rejected" test_program_errors;
    case "ast: substitution" test_subst;
    case "eval: binomial" test_eval_basic;
    case "eval: negative result" test_eval_neg;
    case "eval: modular wrap-around" test_eval_mod_wraps;
    case "eval: mask" test_eval_mask;
    case "ast: vars sorted" test_vars;
    case "env: defaults" test_env_defaults;
    case "env: rebinding replaces" test_env_duplicate_ok;
    case "env: validation" test_env_validation;
    case "env: check_covers" test_env_check_covers;
    case "range: variable" test_range_var;
    case "range: subtraction goes negative" test_range_sub_negative;
    case "range: multiplication" test_range_mul;
    case "range: natural widths of paper designs" test_range_natural_widths;
    case "range: constants" test_range_const_zero;
    case "sop: (x+y)^2 expands" test_sop_expand_square;
    case "sop: cancellation" test_sop_cancellation;
    case "sop: constant folding" test_sop_constant_folding;
    case "sop: eval matches ast eval" test_sop_eval_matches_ast;
    case "sop: to_expr roundtrip" test_sop_to_expr_roundtrip;
    case "sop: max degree" test_sop_degree;
    case "csd: value reconstruction" test_csd_values;
    case "csd: canonical form" test_csd_canonical;
    case "csd: beats binary on 255" test_csd_beats_binary;
    case "csd: never more digits than binary" test_csd_never_worse;
    case "csd: binary value reconstruction" test_binary_values;
    case "range: bounds saturate" test_range_saturates;
    case "range: widths past 2^61" test_range_wide_widths;
  ]
