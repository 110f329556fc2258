(* Tests for refl-spanners (§3): ref-words and dereferencing, refl
   regexes and automata, evaluation, the linear-time model checking of
   §3.3, reference-boundedness, and the two translations of §3.2. *)

open Spanner_core
open Spanner_refl

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string
let vs = Variable.set_of_list

let relation =
  Alcotest.testable (fun ppf r -> Span_relation.pp ?doc:None ppf r) Span_relation.equal

let t bindings = Span_tuple.of_list (List.map (fun (x, i, j) -> (v x, Span.make i j)) bindings)

let rel vars tuples = Span_relation.of_list (vs (List.map v vars)) tuples

(* ------------------------------------------------------------------ *)
(* Ref-words and 𝔡(·) *)

let paper_deref_example () =
  (* §3.1: w = ⊢x aa ⊢y bbb ⊣x cc x ⊣y abc y derives
     aabbbccaabbbabcbbbccaabbb *)
  let w = Refl_word.of_string "⊢xaa⊢ybbb⊣xcc&x⊣yabc&y" in
  check Alcotest.string "𝔡 then e" "aabbbccaabbbabcbbbccaabbb" (Refl_word.doc w);
  let tuple = Refl_word.span_tuple w in
  (* x's span covers "aabbb" = [1,6⟩; y's span covers bbb cc aabbb = [3,13⟩ *)
  check Alcotest.int "x left" 1 (Span.left (Span_tuple.get tuple (v "x")));
  check Alcotest.int "x right" 6 (Span.right (Span_tuple.get tuple (v "x")));
  check Alcotest.int "y left" 3 (Span.left (Span_tuple.get tuple (v "y")));
  check Alcotest.int "y right" 13 (Span.right (Span_tuple.get tuple (v "y")))

let refl_word_validate () =
  let ok s = Refl_word.validate (vs [ v "x"; v "y" ]) (Refl_word.of_string s) = Ok () in
  check Alcotest.bool "simple" true (ok "⊢xa⊣xb&x");
  check Alcotest.bool "ref before close" false (ok "⊢xa&x⊣x");
  check Alcotest.bool "ref before open" false (ok "&x⊢xa⊣x");
  check Alcotest.bool "ref inside other var" true (ok "⊢xa⊣x⊢y&x⊣y");
  check Alcotest.bool "unclosed" false (ok "⊢xab");
  check Alcotest.bool "foreign ref" false (ok "&z_foreign")

let refl_word_counts_and_parse () =
  let w = Refl_word.of_string "⊢xa⊣x&x&x b &x" in
  check Alcotest.int "ref count x" 3 (Refl_word.ref_count w (v "x"));
  check Alcotest.int "ref count y" 0 (Refl_word.ref_count w (v "y"));
  check Alcotest.string "print roundtrip" "⊢xa⊣x&x&x b &x"
    (Refl_word.to_string (Refl_word.of_string "⊢xa⊣x&x&x b &x"))

(* ------------------------------------------------------------------ *)
(* Refl regex and automaton *)

let refl_regex_parse () =
  let r = Refl_regex.parse "ab*!x{[ab]*}[bc]*!y{&x}b*" in
  check Alcotest.int "vars" 2 (Variable.Set.cardinal (Refl_regex.vars r));
  let printed = Refl_regex.to_string r in
  check Alcotest.string "stable print" printed (Refl_regex.to_string (Refl_regex.parse printed));
  check Alcotest.bool "size positive" true (Refl_regex.size r > 5);
  (* a reference followed by an identifier byte is delimited, or the
     name would swallow the byte on re-parse *)
  check Alcotest.string "reference boundary" "!x{a}(&x)a"
    (Refl_regex.to_string (Refl_regex.parse "!x{a}(&x)a"));
  check Alcotest.string "reference at a delimiter" "!x{a}&x|&x*"
    (Refl_regex.to_string (Refl_regex.parse "!x{a}&x|&x*"))

let refl_automaton_soundness () =
  let sound s = Refl_automaton.soundness (Refl_automaton.of_regex (Refl_regex.parse s)) = Ok () in
  check Alcotest.bool "good" true (sound "!x{a*}b&x");
  check Alcotest.bool "ref before close" false (sound "!x{a&x}");
  check Alcotest.bool "ref before open" false (sound "&x!x{a}");
  check Alcotest.bool "ref on dead branch is fine" true (sound "!x{a}(&x|b)")

let refl_reference_bounded () =
  let bounded s = Refl_automaton.reference_bounded (Refl_automaton.of_regex (Refl_regex.parse s)) in
  check Alcotest.bool "no refs" true (bounded "!x{a*}b");
  check Alcotest.bool "two refs" true (bounded "!x{a}&x&x");
  check Alcotest.bool "starred ref unbounded" false (bounded "!x{b+}(a+&x)*a");
  check Alcotest.bool "plus ref unbounded" false (bounded "!x{b}(&x)+");
  (* max counts *)
  let a = Refl_automaton.of_regex (Refl_regex.parse "!x{a}(&x|&x&x)b!y{c}&y") in
  let counts = Refl_automaton.max_ref_counts a in
  check Alcotest.int "x max 2" 2 (Variable.Map.find (v "x") counts);
  check Alcotest.int "y max 1" 1 (Variable.Map.find (v "y") counts)

(* ------------------------------------------------------------------ *)
(* Evaluation and the §3.3 decision problems *)

let refl_eval_paper_example () =
  (* Example (3): a b* ⊢x (a∨b)* ⊣x (b∨c)* ⊢y x ⊣y b* *)
  let s = Refl_spanner.parse "ab*!x{[ab]*}[bc]*!y{&x}b*" in
  let r = Refl_spanner.eval s "abacabb" in
  check relation "single tuple" (rel [ "x"; "y" ] [ t [ ("x", 3, 4); ("y", 5, 6) ] ]) r;
  (* equal a-blocks: x{a+} b y{&x} *)
  let s2 = Refl_spanner.parse "!x{a+}b!y{&x}" in
  check relation "aa b aa"
    (rel [ "x"; "y" ] [ t [ ("x", 1, 3); ("y", 4, 6) ] ])
    (Refl_spanner.eval s2 "aabaa");
  check Alcotest.int "a b aa has none" 0 (Span_relation.cardinal (Refl_spanner.eval s2 "abaa"))

let refl_model_check () =
  let s = Refl_spanner.parse "!x{[ab]+}c!y{&x}[ab]*" in
  let doc = "abcabab" in
  check Alcotest.bool "yes" true (Refl_spanner.model_check s doc (t [ ("x", 1, 3); ("y", 4, 6) ]));
  check Alcotest.bool "no: unequal" false
    (Refl_spanner.model_check s doc (t [ ("x", 1, 3); ("y", 5, 7) ]));
  check Alcotest.bool "no: missing var" false (Refl_spanner.model_check s doc (t [ ("x", 1, 3) ]));
  check Alcotest.bool "no: span too large" false
    (Refl_spanner.model_check s doc (t [ ("x", 1, 3); ("y", 4, 9) ]));
  (* agreement with eval on every tuple of a document *)
  let r = Refl_spanner.eval s doc in
  List.iter
    (fun tuple ->
      if not (Refl_spanner.model_check s doc tuple) then
        Alcotest.failf "eval tuple rejected by model_check")
    (Span_relation.tuples r);
  (* a marker at the reference's left edge is fine... *)
  let s3 = Refl_spanner.parse "!x{ab}!y{a}&x" in
  check Alcotest.bool "marker at reference edge accepted" true
    (Refl_spanner.model_check s3 "abaab" (t [ ("x", 1, 3); ("y", 3, 4) ]));
  (* ...but a marker strictly inside the region a reference must read
     can never be produced (references substitute to plain strings) *)
  let s4 = Refl_spanner.parse "!x{ab}&x!y{[bc]}" in
  check Alcotest.bool "valid tuple accepted" true
    (Refl_spanner.model_check s4 "ababb" (t [ ("x", 1, 3); ("y", 5, 6) ]));
  check Alcotest.bool "marker inside reference region rejected" false
    (Refl_spanner.model_check s4 "ababb" (t [ ("x", 1, 3); ("y", 4, 5) ]))

let refl_nonempty_satisfiable () =
  let s = Refl_spanner.parse "!x{[ab]+}c&x" in
  check Alcotest.bool "nonempty abcab" true (Refl_spanner.nonempty_on s "abcab");
  check Alcotest.bool "empty abcba" false (Refl_spanner.nonempty_on s "abcba");
  check Alcotest.bool "satisfiable" true (Refl_spanner.satisfiable s);
  let dead = Refl_spanner.parse "!x{a[]}&x" in
  check Alcotest.bool "unsatisfiable" false (Refl_spanner.satisfiable dead)

(* ------------------------------------------------------------------ *)
(* Translations (§3.2) *)

let refl_to_core () =
  let cases = [ "!x{a+}b&x"; "ab*!x{[ab]*}[bc]*!y{&x}b*"; "!x{a}&x&x"; "!x{ab|ba}c&x" ] in
  let docs = [ "aba"; "aabaa"; "abcab"; "aaa"; "abacabb"; "bacba"; "abcabab"; "a" ] in
  List.iter
    (fun rs ->
      let s = Refl_spanner.parse rs in
      let core = Refl_spanner.to_core s in
      List.iter
        (fun doc ->
          let r1 = Refl_spanner.eval s doc in
          let r2 = Core_spanner.eval core doc in
          if not (Span_relation.equal r1 r2) then Alcotest.failf "%s differs on %S" rs doc)
        docs)
    cases

let refl_to_core_unbounded_rejected () =
  let unbounded = Refl_spanner.parse "a+!x{b+}(a+&x)*a+" in
  check Alcotest.bool "detected unbounded" false (Refl_spanner.reference_bounded unbounded);
  Alcotest.check_raises "to_core refuses"
    (Invalid_argument "Refl_spanner.to_core: spanner is not reference-bounded (not a core spanner)")
    (fun () -> ignore (Refl_spanner.to_core unbounded))

let unbounded_refl_semantics () =
  (* ⟦a+ x{b+} (a+ x)* a+⟧: the [9, Thm 6.1]-style non-core spanner —
     still evaluable here. *)
  let s = Refl_spanner.parse "a+!x{b+}(a+&x)*a+" in
  check Alcotest.int "two repetitions" 1
    (Span_relation.cardinal (Refl_spanner.eval s "abbabbabba"));
  check Alcotest.int "one repetition" 1 (Span_relation.cardinal (Refl_spanner.eval s "abbabba"));
  check Alcotest.int "mismatched block" 0 (Span_relation.cardinal (Refl_spanner.eval s "abbaba"));
  check Alcotest.int "zero repetitions fine" 1
    (Span_relation.cardinal (Refl_spanner.eval s "abba"))

let core_to_refl_beta_example () =
  (* The β/β′ refinement of §3.2: bodies a(a|b)* and (a|b)*b, class
     {x, y}: the representative must be rebound to the intersection. *)
  let f = Regex_formula.parse "ab*!x{a[ab]*}[bc]*!y{[ab]*b}b*" in
  let refl = Refl_spanner.of_core_formula ~formula:f ~selections:[ vs [ v "x"; v "y" ] ] in
  let core =
    Core_spanner.simplify (Algebra.Select (vs [ v "x"; v "y" ], Algebra.Formula f))
  in
  List.iter
    (fun doc ->
      let r1 = Refl_spanner.eval refl doc in
      let r2 = Core_spanner.eval core doc in
      if not (Span_relation.equal r1 r2) then Alcotest.failf "beta example differs on %S" doc)
    [ "aabcab"; "aabab"; "abab"; "aabcaab"; "abcab"; "aabbcaabb"; "ab"; "aabbabb" ]

let core_to_refl_three_way_class () =
  let f = Regex_formula.parse "!x{[ab]+}c!y{[ab]+}c!z{[ab]+}" in
  let refl =
    Refl_spanner.of_core_formula ~formula:f ~selections:[ vs [ v "x"; v "y"; v "z" ] ]
  in
  let core =
    Core_spanner.simplify
      (Algebra.Select (vs [ v "x"; v "y"; v "z" ], Algebra.Formula f))
  in
  List.iter
    (fun doc ->
      if not (Span_relation.equal (Refl_spanner.eval refl doc) (Core_spanner.eval core doc))
      then Alcotest.failf "three-way differs on %S" doc)
    [ "abcabcab"; "acaca"; "abcabcba"; "aacaacaa" ]

let core_to_refl_fragment_guards () =
  let reject formula selections =
    match Refl_spanner.of_core_formula ~formula:(Regex_formula.parse formula) ~selections with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "optional selected variable" true
    (reject "(!x{a})?!y{a}" [ vs [ v "x"; v "y" ] ]);
  check Alcotest.bool "nested selected binding" true
    (reject "!x{a!y{b}c}d!z{bc}" [ vs [ v "x"; v "z" ] ]);
  check Alcotest.bool "selected var under alternation" true
    (reject "(!x{a}|!x{b})!y{[ab]}" [ vs [ v "x"; v "y" ] ]);
  (* degenerate selections are fine *)
  check Alcotest.bool "singleton class dropped" false
    (reject "!x{a}!y{b}" [ vs [ v "x" ] ])

let refl_unsound_rejected () =
  Alcotest.check_raises "unsound automaton rejected"
    (Invalid_argument
       "Refl_spanner.of_automaton: unsound automaton: reference to x reachable before ⊣x")
    (fun () -> ignore (Refl_spanner.parse "!x{a&x}"))


let refl_contains_sound () =
  let small = Refl_spanner.parse "!x{a+}b&x" in
  let big = Refl_spanner.parse "!x{[ab]+}b&x" in
  check Alcotest.bool "smaller language contained" true (Refl_spanner.contains_sound big small);
  check Alcotest.bool "not the other way" false (Refl_spanner.contains_sound small big);
  check Alcotest.bool "reflexive" true (Refl_spanner.contains_sound small small);
  (* distinct ref-languages denoting overlapping spanners: sound test
     may say false — incompleteness is allowed, never unsoundness *)
  let alt = Refl_spanner.parse "!x{a+|b+}b&x" in
  check Alcotest.bool "superset language" true (Refl_spanner.contains_sound alt small)

(* ------------------------------------------------------------------ *)
(* One parser for Regex, Regex_formula and Refl_regex *)

module Regex = Spanner_fa.Regex

let parse_outcomes s =
  let run parse =
    match parse s with x -> Ok x | exception Regex.Parse_error (m, p) -> Error (m, p)
  in
  (run Regex.parse, run Regex_formula.parse, run Refl_regex.parse)

let parse_error_offsets () =
  List.iter
    (fun (input, expected) ->
      let show = function Ok _ -> "ok" | Error (m, p) -> Printf.sprintf "%s at %d" m p in
      let r, f, rr = parse_outcomes input in
      List.iter
        (fun (which, got) ->
          check Alcotest.string (Printf.sprintf "%s %S" which input) (show (Error expected))
            (show got))
        [
          ("regex", Result.map ignore r);
          ("formula", Result.map ignore f);
          ("refl", Result.map ignore rr);
        ])
    [
      ("abcdef[z-a]", ("inverted range", 10));
      ("xxxxxx[a\\", ("dangling escape in character class", 9));
      ("ab[cd", ("unterminated character class", 5));
      ("a}b", ("reserved character '}' must be escaped", 1));
    ]

(* Regex's smart constructors simplify more than the spanner-level
   ones (alternatives of classes merge, r** collapses), so a formula is
   compared with Regex's AST after rebuilding it through them. *)
let rec regex_of_formula = function
  | Regex_formula.Empty -> Regex.empty
  | Regex_formula.Epsilon -> Regex.epsilon
  | Regex_formula.Chars cs -> Regex.chars cs
  | Regex_formula.Concat (a, b) -> Regex.concat (regex_of_formula a) (regex_of_formula b)
  | Regex_formula.Alt (a, b) -> Regex.alt (regex_of_formula a) (regex_of_formula b)
  | Regex_formula.Star a -> Regex.star (regex_of_formula a)
  | Regex_formula.Plus a -> Regex.plus (regex_of_formula a)
  | Regex_formula.Opt a -> Regex.opt (regex_of_formula a)
  | Regex_formula.Bind _ -> invalid_arg "regex_of_formula: binding"

let prop_parsers_agree =
  QCheck2.Test.make ~name:"Regex, Regex_formula, Refl_regex agree on !/&-free inputs"
    ~count:3000
    QCheck2.Gen.(
      string_size ~gen:(oneofl (List.of_seq (String.to_seq "ab[]^-\\(){},|*+?.0123"))) (0 -- 12))
    ~print:String.escaped
    (fun s ->
      match parse_outcomes s with
      | Ok r, Ok f, Ok rr ->
          r = regex_of_formula f && rr = Refl_regex.of_formula f
      | Error e1, Error e2, Error e3 -> e1 = e2 && e2 = e3
      | _ -> false)

let () =
  Alcotest.run "refl"
    [
      ( "refl_word",
        [
          tc "paper 𝔡 example (§3.1)" `Quick paper_deref_example;
          tc "validation" `Quick refl_word_validate;
          tc "ref counts / parsing" `Quick refl_word_counts_and_parse;
        ] );
      ( "refl_automaton",
        [
          tc "regex parse/print" `Quick refl_regex_parse;
          tc "soundness" `Quick refl_automaton_soundness;
          tc "reference boundedness (§3.2)" `Quick refl_reference_bounded;
        ] );
      ( "refl_spanner",
        [
          tc "eval (paper example (3))" `Quick refl_eval_paper_example;
          tc "model checking (§3.3)" `Quick refl_model_check;
          tc "nonemptiness/satisfiability (§3.3)" `Quick refl_nonempty_satisfiable;
          tc "unsound input rejected" `Quick refl_unsound_rejected;
          tc "sound containment (§3.3)" `Quick refl_contains_sound;
        ] );
      ( "parsers",
        [
          tc "error offsets and messages" `Quick parse_error_offsets;
          QCheck_alcotest.to_alcotest prop_parsers_agree;
        ] );
      ( "translations",
        [
          tc "refl→core" `Quick refl_to_core;
          tc "refl→core guards" `Quick refl_to_core_unbounded_rejected;
          tc "unbounded refl semantics" `Quick unbounded_refl_semantics;
          tc "core→refl β example" `Quick core_to_refl_beta_example;
          tc "core→refl three-way class" `Quick core_to_refl_three_way_class;
          tc "core→refl fragment guards" `Quick core_to_refl_fragment_guards;
        ] );
    ]
