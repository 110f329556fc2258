(* Unit tests for the classical finite-automata substrate: charsets,
   regex parsing/printing, Thompson NFAs, DFAs, minimisation,
   containment/equivalence, and state elimination back to regexes. *)

open Spanner_fa

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Charset *)

let charset_basic () =
  let cs = Charset.of_string "abc" in
  check Alcotest.bool "mem a" true (Charset.mem cs 'a');
  check Alcotest.bool "mem d" false (Charset.mem cs 'd');
  check Alcotest.int "cardinal" 3 (Charset.cardinal cs);
  check Alcotest.bool "full has everything" true (Charset.mem Charset.full '\255');
  check Alcotest.int "full cardinal" 256 (Charset.cardinal Charset.full);
  check Alcotest.bool "empty" true (Charset.is_empty Charset.empty)

let charset_ops () =
  let a = Charset.range 'a' 'f' and b = Charset.range 'd' 'k' in
  check Alcotest.int "union" 11 (Charset.cardinal (Charset.union a b));
  check Alcotest.int "inter" 3 (Charset.cardinal (Charset.inter a b));
  check Alcotest.int "diff" 3 (Charset.cardinal (Charset.diff a b));
  let comp = Charset.complement a in
  check Alcotest.bool "complement excludes" false (Charset.mem comp 'c');
  check Alcotest.bool "complement includes" true (Charset.mem comp 'z');
  check Alcotest.int "complement cardinal" 250 (Charset.cardinal comp)

let charset_elements () =
  let cs = Charset.of_string "cab" in
  check (Alcotest.list Alcotest.char) "sorted" [ 'a'; 'b'; 'c' ] (Charset.elements cs);
  check (Alcotest.option Alcotest.char) "choose" (Some 'a') (Charset.choose cs);
  check (Alcotest.option Alcotest.char) "choose empty" None (Charset.choose Charset.empty);
  check Alcotest.bool "equal" true (Charset.equal cs (Charset.of_string "abc"))

let charset_boundaries () =
  (* word boundaries at 63/64 and 127/128 *)
  let cs = Charset.range (Char.chr 60) (Char.chr 130) in
  check Alcotest.int "cardinal across words" 71 (Charset.cardinal cs);
  check Alcotest.bool "mem 63" true (Charset.mem cs (Char.chr 63));
  check Alcotest.bool "mem 64" true (Charset.mem cs (Char.chr 64));
  check Alcotest.bool "mem 131" false (Charset.mem cs (Char.chr 131));
  check Alcotest.bool "mem 59" false (Charset.mem cs (Char.chr 59))

(* ------------------------------------------------------------------ *)
(* Regex parsing and printing *)

let accepts r w = Nfa.accepts (Nfa.of_regex (Regex.parse r)) w

let regex_literals () =
  check Alcotest.bool "literal" true (accepts "abc" "abc");
  check Alcotest.bool "literal mismatch" false (accepts "abc" "abd");
  check Alcotest.bool "escaped star" true (accepts {|a\*b|} "a*b");
  check Alcotest.bool "escaped backslash" true (accepts {|a\\b|} {|a\b|});
  check Alcotest.bool "dot" true (accepts "a.c" "axc");
  check Alcotest.bool "empty regex accepts empty" true (accepts "" "")

let regex_operators () =
  check Alcotest.bool "alternation" true (accepts "ab|cd" "cd");
  check Alcotest.bool "star zero" true (accepts "a*" "");
  check Alcotest.bool "star many" true (accepts "a*" "aaaa");
  check Alcotest.bool "plus zero" false (accepts "a+" "");
  check Alcotest.bool "plus one" true (accepts "a+" "a");
  check Alcotest.bool "opt present" true (accepts "ab?c" "abc");
  check Alcotest.bool "opt absent" true (accepts "ab?c" "ac");
  check Alcotest.bool "grouping" true (accepts "(ab)+" "ababab");
  check Alcotest.bool "grouping no partial" false (accepts "(ab)+" "aba");
  check Alcotest.bool "precedence: concat over alt" true (accepts "ab|cd" "ab");
  check Alcotest.bool "precedence: star over concat" true (accepts "ab*" "abbb")

let regex_classes () =
  check Alcotest.bool "class" true (accepts "[abc]+" "cab");
  check Alcotest.bool "range" true (accepts "[a-z]+" "hello");
  check Alcotest.bool "range excludes" false (accepts "[a-z]+" "Hello");
  check Alcotest.bool "negated" true (accepts "[^0-9]+" "abc");
  check Alcotest.bool "negated excludes" false (accepts "[^0-9]+" "ab3");
  check Alcotest.bool "literal dash" true (accepts "[a-]+" "a-a");
  check Alcotest.bool "escaped bracket" true (accepts {|[\]]+|} "]]");
  check Alcotest.bool "empty class = empty lang" false (accepts "x[]" "x")

let regex_errors () =
  let fails s =
    match Regex.parse s with
    | exception Regex.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "unbalanced paren" true (fails "(ab");
  check Alcotest.bool "dangling star" true (fails "*a");
  check Alcotest.bool "unterminated class" true (fails "[ab");
  check Alcotest.bool "dangling escape" true (fails {|ab\|});
  check Alcotest.bool "reserved brace" true (fails "a{b");
  check Alcotest.bool "reserved amp" true (fails "a&b");
  check Alcotest.bool "reserved bang" true (fails "a!b");
  check Alcotest.bool "trailing junk" true (fails "a)b")


let regex_bounded_repetition () =
  check Alcotest.bool "exact" true (accepts "a{3}" "aaa");
  check Alcotest.bool "exact under" false (accepts "a{3}" "aa");
  check Alcotest.bool "exact over" false (accepts "a{3}" "aaaa");
  check Alcotest.bool "range low" true (accepts "a{2,4}" "aa");
  check Alcotest.bool "range high" true (accepts "a{2,4}" "aaaa");
  check Alcotest.bool "range over" false (accepts "a{2,4}" "aaaaa");
  check Alcotest.bool "open-ended" true (accepts "a{2,}" "aaaaaa");
  check Alcotest.bool "open-ended under" false (accepts "a{2,}" "a");
  check Alcotest.bool "group repetition" true (accepts "(ab){2}c" "ababc");
  check Alcotest.bool "zero lower bound" true (accepts "a{0,2}" "");
  let fails s = match Regex.parse s with exception Regex.Parse_error _ -> true | _ -> false in
  check Alcotest.bool "inverted bounds" true (fails "a{3,2}");
  check Alcotest.bool "empty braces" true (fails "a{}");
  check Alcotest.bool "unterminated" true (fails "a{2")

let regex_print_parse_roundtrip () =
  let cases =
    [ "abc"; "a|b"; "(a|b)*c"; "a+b?c*"; "[a-f]+"; "a(bc|de)*f"; {|a\*b|}; "x[]"; "(ab)?" ]
  in
  List.iter
    (fun s ->
      let r = Regex.parse s in
      let printed = Regex.to_string r in
      let r' = Regex.parse printed in
      if not (Nfa.equal_lang (Nfa.of_regex r) (Nfa.of_regex r')) then
        Alcotest.failf "roundtrip failed for %s -> %s" s printed)
    cases

(* Registry compiles DEFINE bodies from their printed form, so a class
   must print back to the same set, including the bytes the class
   grammar gives a meaning: backslash, ], ^ and - *)
let prop_class_print_parse =
  let byte =
    QCheck2.Gen.(oneof [ map Char.chr (0 -- 255); oneofl [ '\\'; ']'; '^'; '-'; '['; '!' ] ])
  in
  let piece =
    QCheck2.Gen.(
      oneof
        [
          map Charset.singleton byte;
          map2 (fun a b -> Charset.range (min a b) (max a b)) byte byte;
        ])
  in
  QCheck2.Test.make ~name:"printed classes re-parse to the same set (all 256 bytes)" ~count:1000
    QCheck2.Gen.(
      map2
        (fun pieces negate ->
          let cs = List.fold_left Charset.union Charset.empty pieces in
          if negate then Charset.complement cs else cs)
        (list_size (0 -- 6) piece) bool)
    ~print:(fun cs -> String.escaped (Regex.to_string (Regex.chars cs)))
    (fun cs ->
      match Regex.parse (Regex.to_string (Regex.chars cs)) with
      | Regex.Empty -> Charset.is_empty cs
      | Regex.Chars cs' -> Charset.equal cs cs'
      | _ -> false)

let regex_smart_constructors () =
  check Alcotest.bool "empty annihilates" true (Regex.concat Regex.empty (Regex.char 'a') = Regex.Empty);
  check Alcotest.bool "epsilon unit" true (Regex.concat Regex.epsilon (Regex.char 'a') = Regex.char 'a');
  check Alcotest.bool "star of empty" true (Regex.star Regex.empty = Regex.Epsilon);
  check Alcotest.bool "nullable eps" true (Regex.nullable Regex.epsilon);
  check Alcotest.bool "nullable star" true (Regex.nullable (Regex.star (Regex.char 'a')));
  check Alcotest.bool "not nullable char" false (Regex.nullable (Regex.char 'a'));
  check Alcotest.bool "is_empty_lang" true (Regex.is_empty_lang (Regex.concat (Regex.char 'a') Regex.empty));
  check Alcotest.bool "escape roundtrip" true (accepts (Regex.escape "a*b|c") "a*b|c")

(* ------------------------------------------------------------------ *)
(* NFA operations *)

let nfa_ops () =
  let a = Nfa.of_regex (Regex.parse "ab") in
  let b = Nfa.of_regex (Regex.parse "cd") in
  check Alcotest.bool "union left" true (Nfa.accepts (Nfa.union a b) "ab");
  check Alcotest.bool "union right" true (Nfa.accepts (Nfa.union a b) "cd");
  check Alcotest.bool "union neither" false (Nfa.accepts (Nfa.union a b) "ad");
  check Alcotest.bool "concat" true (Nfa.accepts (Nfa.concat a b) "abcd");
  check Alcotest.bool "star empty" true (Nfa.accepts (Nfa.star a) "");
  check Alcotest.bool "star twice" true (Nfa.accepts (Nfa.star a) "abab");
  let i = Nfa.inter (Nfa.of_regex (Regex.parse "a*b*")) (Nfa.of_regex (Regex.parse "a?b?")) in
  check Alcotest.bool "inter ab" true (Nfa.accepts i "ab");
  check Alcotest.bool "inter aab" false (Nfa.accepts i "aab")

let nfa_decision () =
  check Alcotest.bool "empty lang" true (Nfa.is_empty_lang (Nfa.of_regex Regex.empty));
  check Alcotest.bool "nonempty" false (Nfa.is_empty_lang (Nfa.of_regex (Regex.parse "a")));
  check (Alcotest.option Alcotest.string) "shortest" (Some "ad")
    (Nfa.shortest_word (Nfa.of_regex (Regex.parse "a(bc)*d")));
  check (Alcotest.option Alcotest.string) "shortest of empty" None
    (Nfa.shortest_word (Nfa.of_regex Regex.empty));
  check (Alcotest.option Alcotest.string) "shortest epsilon" (Some "")
    (Nfa.shortest_word (Nfa.of_regex (Regex.parse "a*")))

let nfa_containment () =
  let sub = Nfa.of_regex (Regex.parse "(ab)+") in
  let sup = Nfa.of_regex (Regex.parse "[ab]*") in
  check Alcotest.bool "contained" true (Nfa.contains sup sub);
  check Alcotest.bool "not contained" false (Nfa.contains sub sup);
  check Alcotest.bool "self equal" true (Nfa.equal_lang sub sub);
  check Alcotest.bool "a*a* = a*" true
    (Nfa.equal_lang (Nfa.of_regex (Regex.parse "a*a*")) (Nfa.of_regex (Regex.parse "a*")))

let nfa_trim () =
  (* Build an NFA with junk states by unioning with the empty language *)
  let a = Nfa.union (Nfa.of_regex (Regex.parse "ab")) (Nfa.of_regex Regex.empty) in
  let t = Nfa.trim a in
  check Alcotest.bool "same language" true (Nfa.equal_lang a t);
  check Alcotest.bool "fewer or equal states" true (Nfa.size t <= Nfa.size a)

(* ------------------------------------------------------------------ *)
(* DFA *)

let dfa_accepts () =
  let d = Dfa.of_regex (Regex.parse "(a|b)*abb") in
  check Alcotest.bool "accepts" true (Dfa.accepts d "aabb");
  check Alcotest.bool "accepts long" true (Dfa.accepts d "abababb");
  check Alcotest.bool "rejects" false (Dfa.accepts d "ab");
  check Alcotest.bool "rejects empty" false (Dfa.accepts d "")

let dfa_complement () =
  let d = Dfa.of_regex (Regex.parse "a+") in
  let c = Dfa.complement d in
  check Alcotest.bool "complement rejects a" false (Dfa.accepts c "aa");
  check Alcotest.bool "complement accepts empty" true (Dfa.accepts c "");
  check Alcotest.bool "complement accepts b" true (Dfa.accepts c "b");
  check Alcotest.bool "double complement" true (Dfa.equal_lang d (Dfa.complement c))

let dfa_products () =
  let a = Dfa.of_regex (Regex.parse "a*b") and b = Dfa.of_regex (Regex.parse "ab*") in
  check Alcotest.bool "inter ab" true (Dfa.accepts (Dfa.inter a b) "ab");
  check Alcotest.bool "inter aab" false (Dfa.accepts (Dfa.inter a b) "aab");
  check Alcotest.bool "diff aab" true (Dfa.accepts (Dfa.diff a b) "aab");
  check Alcotest.bool "diff ab" false (Dfa.accepts (Dfa.diff a b) "ab")

let dfa_minimize () =
  (* (a|b)*abb has a canonical 4-state DFA (plus nothing else). *)
  let d = Dfa.of_regex (Regex.parse "(a|b)*abb") in
  let m = Dfa.minimize d in
  check Alcotest.bool "language preserved" true (Dfa.equal_lang d m);
  (* 4 textbook states plus the sink for bytes outside {a, b} *)
  check Alcotest.int "canonical size" 5 (Dfa.size m);
  (* Minimising twice is idempotent. *)
  check Alcotest.int "idempotent" (Dfa.size m) (Dfa.size (Dfa.minimize m))

let dfa_shortest () =
  check (Alcotest.option Alcotest.string) "shortest" (Some "abb")
    (Dfa.shortest_word (Dfa.of_regex (Regex.parse "(a|b)*abb")));
  check (Alcotest.option Alcotest.string) "none" None (Dfa.shortest_word (Dfa.of_regex Regex.empty))

let dfa_to_nfa () =
  let d = Dfa.of_regex (Regex.parse "a(b|c)d*") in
  let n = Dfa.to_nfa d in
  check Alcotest.bool "same language" true (Nfa.equal_lang n (Nfa.of_regex (Regex.parse "a(b|c)d*")))

(* ------------------------------------------------------------------ *)
(* To_regex *)

let to_regex_roundtrip () =
  let cases = [ "a"; "ab*c"; "(a|b)*abb"; "a+b+"; "(ab|ba)*"; "a?b?c?" ] in
  List.iter
    (fun s ->
      let n = Nfa.of_regex (Regex.parse s) in
      let r = To_regex.of_nfa n in
      if not (Nfa.equal_lang n (Nfa.of_regex r)) then
        Alcotest.failf "state elimination changed the language of %s (got %s)" s
          (Regex.to_string r))
    cases

let to_regex_intersection () =
  let i = To_regex.intersection_regex [ Regex.parse "a[ab]*"; Regex.parse "[ab]*b"; Regex.parse "..*" ] in
  let n = Nfa.of_regex i in
  check Alcotest.bool "ab in" true (Nfa.accepts n "ab");
  check Alcotest.bool "aab in" true (Nfa.accepts n "aab");
  check Alcotest.bool "a out" false (Nfa.accepts n "a");
  check Alcotest.bool "ba out" false (Nfa.accepts n "ba");
  Alcotest.check_raises "empty list" (Invalid_argument "To_regex.intersection_regex: empty list")
    (fun () -> ignore (To_regex.intersection_regex []))


(* ------------------------------------------------------------------ *)
(* Brzozowski derivatives: independent matcher cross-check *)

let derivative_basics () =
  let m r w = Derivative.matches (Regex.parse r) w in
  check Alcotest.bool "literal" true (m "abc" "abc");
  check Alcotest.bool "mismatch" false (m "abc" "abd");
  check Alcotest.bool "star" true (m "(ab)*" "abab");
  check Alcotest.bool "class" true (m "[a-c]+" "cab");
  check Alcotest.bool "alt" true (m "x|y" "y");
  check Alcotest.bool "empty regex" true (m "" "");
  check Alcotest.bool "plus needs one" false (m "a+" "")

let derivative_vs_nfa () =
  let rng = Spanner_util.Xoshiro.create 90 in
  let regexes = [ "a(b|c)*d"; "(ab|ba)+"; "[abc]*abc"; "a?b?c?d?"; "((a|b)(c|d))*"; "a{2,4}b" ] in
  List.iter
    (fun rs ->
      let r = Regex.parse rs in
      let nfa = Nfa.of_regex r in
      for _ = 1 to 200 do
        let w = Spanner_util.Xoshiro.string rng "abcd" (Spanner_util.Xoshiro.int rng 12) in
        if Derivative.matches r w <> Nfa.accepts nfa w then
          Alcotest.failf "derivative and NFA disagree: %s on %S" rs w
      done)
    regexes

let () =
  Alcotest.run "fa"
    [
      ( "charset",
        [
          tc "basic" `Quick charset_basic;
          tc "set operations" `Quick charset_ops;
          tc "elements/choose" `Quick charset_elements;
          tc "word boundaries" `Quick charset_boundaries;
        ] );
      ( "regex",
        [
          tc "literals/escapes" `Quick regex_literals;
          tc "operators" `Quick regex_operators;
          tc "character classes" `Quick regex_classes;
          tc "parse errors" `Quick regex_errors;
          tc "bounded repetition" `Quick regex_bounded_repetition;
          tc "print/parse roundtrip" `Quick regex_print_parse_roundtrip;
          tc "smart constructors" `Quick regex_smart_constructors;
          QCheck_alcotest.to_alcotest prop_class_print_parse;
        ] );
      ( "nfa",
        [
          tc "closure operations" `Quick nfa_ops;
          tc "decision procedures" `Quick nfa_decision;
          tc "containment/equivalence" `Quick nfa_containment;
          tc "trim" `Quick nfa_trim;
        ] );
      ( "dfa",
        [
          tc "membership" `Quick dfa_accepts;
          tc "complement" `Quick dfa_complement;
          tc "products" `Quick dfa_products;
          tc "minimisation" `Quick dfa_minimize;
          tc "shortest word" `Quick dfa_shortest;
          tc "to_nfa" `Quick dfa_to_nfa;
        ] );
      ( "derivative",
        [
          tc "basics" `Quick derivative_basics;
          tc "agrees with NFA on random words" `Quick derivative_vs_nfa;
        ] );
      ( "to_regex",
        [
          tc "state elimination roundtrip" `Quick to_regex_roundtrip;
          tc "intersection regex" `Quick to_regex_intersection;
        ] );
    ]
