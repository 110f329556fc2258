(* Tests for the automaton layer: vset-automata, extended vset-automata
   (evaluation, algebra on automata, decision problems, determinisation)
   and the two-phase enumeration of §2.5. *)

open Spanner_core

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string
let vs = Variable.set_of_list

let relation =
  Alcotest.testable (fun ppf r -> Span_relation.pp ?doc:None ppf r) Span_relation.equal

let eval_formula s doc = Evset.eval (Evset.of_formula (Regex_formula.parse s)) doc

let t bindings = Span_tuple.of_list (List.map (fun (x, i, j) -> (v x, Span.make i j)) bindings)

let rel vars tuples = Span_relation.of_list (vs (List.map v vars)) tuples

(* ------------------------------------------------------------------ *)
(* Example 1.1 of the paper *)

let example_1_1 () =
  let r = eval_formula "!x{[ab]*}!y{b}!z{[ab]*}" "ababbab" in
  let expected =
    rel [ "x"; "y"; "z" ]
      [
        t [ ("x", 1, 2); ("y", 2, 3); ("z", 3, 8) ];
        t [ ("x", 1, 4); ("y", 4, 5); ("z", 5, 8) ];
        t [ ("x", 1, 5); ("y", 5, 6); ("z", 6, 8) ];
        t [ ("x", 1, 7); ("y", 7, 8); ("z", 8, 8) ];
      ]
  in
  check relation "paper table" expected r

(* ------------------------------------------------------------------ *)
(* Vset *)

let vset_compile_and_accept () =
  let a = Vset.of_formula (Regex_formula.parse "!x{a+}b") in
  check Alcotest.bool "accepts marked" true (Vset.accepts_marked a (Ref_word.of_string "⊢xaa⊣xb"));
  check Alcotest.bool "wrong marker position" false
    (Vset.accepts_marked a (Ref_word.of_string "⊢xa⊣xab"));
  check Alcotest.bool "missing marker" false (Vset.accepts_marked a (Ref_word.of_string "aab"));
  check Alcotest.int "vars" 1 (Variable.Set.cardinal (Vset.vars a))

let vset_soundness () =
  (* compiled formulas are always sound *)
  (match Vset.soundness (Vset.of_formula (Regex_formula.parse "!x{a*}(!y{b})?")) with
  | Ok functional -> check Alcotest.bool "schemaless formula not functional" false functional
  | Error e -> Alcotest.failf "unexpectedly unsound: %s" e);
  (match Vset.soundness (Vset.of_formula (Regex_formula.parse "!x{a*}!y{b}")) with
  | Ok functional -> check Alcotest.bool "total formula functional" true functional
  | Error e -> Alcotest.failf "unexpectedly unsound: %s" e);
  (* hand-built unsound automaton: ⊢x on a loop *)
  let b = Vset.Builder.create () in
  let s0 = Vset.Builder.add_state b in
  let s1 = Vset.Builder.add_state b in
  Vset.Builder.add_mark b s0 (Marker.Open (v "x")) s1;
  Vset.Builder.add_eps b s1 s0;
  Vset.Builder.add_mark b s1 (Marker.Close (v "x")) s1;
  let a = Vset.Builder.finish b ~initial:s0 ~finals:[ s1 ] ~vars:(vs [ v "x" ]) in
  (match Vset.soundness a with
  | Ok _ -> Alcotest.fail "loop automaton should be unsound"
  | Error _ -> ());
  (* builder guards foreign variables *)
  let b2 = Vset.Builder.create () in
  let q0 = Vset.Builder.add_state b2 in
  let q1 = Vset.Builder.add_state b2 in
  Vset.Builder.add_mark b2 q0 (Marker.Open (v "x")) q1;
  Alcotest.check_raises "foreign marker"
    (Invalid_argument "Vset.Builder.finish: a marker arc uses a variable outside ~vars")
    (fun () -> ignore (Vset.Builder.finish b2 ~initial:q0 ~finals:[ q1 ] ~vars:Variable.Set.empty))

let vset_projection_union () =
  let a = Vset.of_formula (Regex_formula.parse "!x{a}!y{b}") in
  let p = Vset.project (vs [ v "x" ]) a in
  let r = Evset.eval (Evset.of_vset p) "ab" in
  check relation "projection drops y" (rel [ "x" ] [ t [ ("x", 1, 2) ] ]) r;
  let u = Vset.union a (Vset.of_formula (Regex_formula.parse "!x{ab}")) in
  let r = Evset.eval (Evset.of_vset u) "ab" in
  check Alcotest.int "union has both" 2 (Span_relation.cardinal r)

(* ------------------------------------------------------------------ *)
(* Evset: evaluation and ModelChecking *)

let evset_eval_empty_doc () =
  check Alcotest.int "x{a*} on empty doc" 1 (Span_relation.cardinal (eval_formula "!x{a*}" ""));
  check Alcotest.int "x{a+} on empty doc" 0 (Span_relation.cardinal (eval_formula "!x{a+}" ""))

let evset_eval_all_spans () =
  (* .* x{.*} .* extracts every span: (n+1)(n+2)/2 tuples *)
  let r = eval_formula ".*!x{.*}.*" "abcd" in
  check Alcotest.int "all spans" 15 (Span_relation.cardinal r)

let evset_accepts_tuple () =
  let e = Evset.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  check Alcotest.bool "in" true
    (Evset.accepts_tuple e "ababbab" (t [ ("x", 1, 4); ("y", 4, 5); ("z", 5, 8) ]));
  check Alcotest.bool "out: y not on b" false
    (Evset.accepts_tuple e "ababbab" (t [ ("x", 1, 2); ("y", 2, 4); ("z", 4, 8) ]));
  check Alcotest.bool "out: partial tuple" false
    (Evset.accepts_tuple e "ababbab" (t [ ("x", 1, 4); ("y", 4, 5) ]));
  (* schemaless: partial tuples are members when the run omits the var *)
  let e2 = Evset.of_formula (Regex_formula.parse "a(!x{b})?c") in
  check Alcotest.bool "schemaless empty tuple" true (Evset.accepts_tuple e2 "ac" (t []));
  check Alcotest.bool "schemaless bound" true (Evset.accepts_tuple e2 "abc" (t [ ("x", 2, 3) ]));
  check Alcotest.bool "schemaless wrong" false (Evset.accepts_tuple e2 "abc" (t []))

let evset_nonempty_satisfiable () =
  let e = Evset.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  check Alcotest.bool "nonempty" true (Evset.nonempty_on e "aab");
  check Alcotest.bool "empty" false (Evset.nonempty_on e "bba");
  check Alcotest.bool "satisfiable" true (Evset.satisfiable e);
  let dead = Evset.of_formula (Regex_formula.parse "!x{a}[]") in
  check Alcotest.bool "unsatisfiable" false (Evset.satisfiable dead);
  (match Evset.some_witness e with
  | Some (doc, tuple) ->
      check Alcotest.bool "witness checks" true (Evset.accepts_tuple e doc tuple)
  | None -> Alcotest.fail "expected a witness");
  check Alcotest.bool "no witness for dead" true (Evset.some_witness dead = None)

(* ------------------------------------------------------------------ *)
(* Evset: algebra on automata vs relational algebra *)

let docs = [ ""; "a"; "b"; "ab"; "ba"; "aab"; "abb"; "abab"; "baab"; "ababb" ]

let check_equal_on_docs msg sym_eval rel_eval =
  List.iter
    (fun doc ->
      let symbolic = sym_eval doc and relational = rel_eval doc in
      if not (Span_relation.equal symbolic relational) then
        Alcotest.failf "%s differs on %S" msg doc)
    docs

let evset_union_vs_relational () =
  let e1 = Evset.of_formula (Regex_formula.parse "!x{a}b*") in
  let e2 = Evset.of_formula (Regex_formula.parse "a*!x{b}") in
  check_equal_on_docs "union"
    (fun doc -> Evset.eval (Evset.union e1 e2) doc)
    (fun doc -> Span_relation.union (Evset.eval e1 doc) (Evset.eval e2 doc))

let evset_join_vs_relational () =
  let cases =
    [
      ("!x{a+}[ab]*", "[ab]*!y{b+}");
      ("!x{a+}!y{b*}", "!x{a+}b*");
      ("(!x{a})?b*", "!x{a}b*|[ab]*");
      ("!x{[ab]}.*", ".!x{[ab]}.*|!x{[ab]}.*");
    ]
  in
  List.iter
    (fun (f1, f2) ->
      let e1 = Evset.of_formula (Regex_formula.parse f1) in
      let e2 = Evset.of_formula (Regex_formula.parse f2) in
      check_equal_on_docs
        (Printf.sprintf "join %s vs %s" f1 f2)
        (fun doc -> Evset.eval (Evset.join e1 e2) doc)
        (fun doc -> Span_relation.join (Evset.eval e1 doc) (Evset.eval e2 doc)))
    cases

let evset_project_vs_relational () =
  let e = Evset.of_formula (Regex_formula.parse "!x{a*}!y{b*}!z{a*}") in
  let keep = vs [ v "x"; v "z" ] in
  check_equal_on_docs "project"
    (fun doc -> Evset.eval (Evset.project keep e) doc)
    (fun doc -> Span_relation.project keep (Evset.eval e doc))

(* ------------------------------------------------------------------ *)
(* Evset: containment / equivalence / hierarchicality *)

let evset_containment () =
  let small = Evset.of_formula (Regex_formula.parse "!x{a}b") in
  let big = Evset.of_formula (Regex_formula.parse "!x{a|b}b") in
  check Alcotest.bool "small contained in big" true (Evset.contains big small);
  check Alcotest.bool "big not contained in small" false (Evset.contains small big);
  check Alcotest.bool "not equal" false (Evset.equal_spanner small big);
  (* same spanner, different formulas *)
  let a1 = Evset.of_formula (Regex_formula.parse "!x{a|b}c") in
  let a2 =
    Evset.union
      (Evset.of_formula (Regex_formula.parse "!x{a}c"))
      (Evset.of_formula (Regex_formula.parse "!x{b}c"))
  in
  check Alcotest.bool "union decomposition equal" true (Evset.equal_spanner a1 a2);
  (* marker positions matter, not just the language of documents *)
  let l = Evset.of_formula (Regex_formula.parse "!x{a}a") in
  let r = Evset.of_formula (Regex_formula.parse "a!x{a}") in
  check Alcotest.bool "same docs, different spans" false (Evset.equal_spanner l r)

let evset_hierarchical () =
  check Alcotest.bool "formula spanners are hierarchical" true
    (Evset.hierarchical (Evset.of_formula (Regex_formula.parse "!x{a!y{b}c}d!z{e}")));
  (* hand-built overlapping spanner: ⊢x a ⊢y a ⊣x a ⊣y *)
  let b = Vset.Builder.create () in
  let states = Array.init 8 (fun _ -> Vset.Builder.add_state b) in
  Vset.Builder.add_mark b states.(0) (Marker.Open (v "x")) states.(1);
  Vset.Builder.add_char b states.(1) 'a' states.(2);
  Vset.Builder.add_mark b states.(2) (Marker.Open (v "y")) states.(3);
  Vset.Builder.add_char b states.(3) 'a' states.(4);
  Vset.Builder.add_mark b states.(4) (Marker.Close (v "x")) states.(5);
  Vset.Builder.add_char b states.(5) 'a' states.(6);
  Vset.Builder.add_mark b states.(6) (Marker.Close (v "y")) states.(7);
  let ov =
    Evset.of_vset
      (Vset.Builder.finish b ~initial:states.(0) ~finals:[ states.(7) ]
         ~vars:(vs [ v "x"; v "y" ]))
  in
  check Alcotest.bool "overlap possible x,y" true (Evset.overlap_possible ov (v "x") (v "y"));
  check Alcotest.bool "overlap not possible y,x" false (Evset.overlap_possible ov (v "y") (v "x"));
  check Alcotest.bool "not hierarchical" false (Evset.hierarchical ov);
  (* nested spans do NOT strictly overlap *)
  check Alcotest.bool "nested not overlap" false
    (Evset.overlap_possible (Evset.of_formula (Regex_formula.parse "!x{a!y{b}c}")) (v "x") (v "y"))

let evset_rename_duplicate () =
  let e = Evset.of_formula (Regex_formula.parse "!x{a+}b") in
  let renamed = Evset.rename_vars (fun _ -> v "renamed_w") e in
  let r = Evset.eval renamed "aab" in
  check relation "renamed" (rel [ "renamed_w" ] [ t [ ("renamed_w", 1, 3) ] ]) r;
  let dup = Evset.duplicate_var e (v "x") (v "x_shadow") in
  let r = Evset.eval dup "ab" in
  check relation "shadow binds same span"
    (rel [ "x"; "x_shadow" ] [ t [ ("x", 1, 2); ("x_shadow", 1, 2) ] ])
    r;
  Alcotest.check_raises "duplicate of unknown"
    (Invalid_argument "Evset.duplicate_var: unknown variable") (fun () ->
      ignore (Evset.duplicate_var e (v "nonexistent_var_q") (v "q2")))

let evset_determinize () =
  let formulas =
    [ "!x{[ab]*}!y{b}!z{[ab]*}"; "[ab]*!x{a[ab]}[ab]*"; "a(!x{b})?c"; "!x{a*}|!x{a}a*" ]
  in
  List.iter
    (fun fs ->
      let e = Evset.of_formula (Regex_formula.parse fs) in
      let d = Evset.determinize e in
      if not (Evset.is_deterministic d) then Alcotest.failf "%s: not deterministic" fs;
      if not (Evset.equal_spanner e d) then Alcotest.failf "%s: language changed" fs)
    formulas


let evset_to_vset_roundtrip () =
  List.iter
    (fun fs ->
      let e = Evset.of_formula (Regex_formula.parse fs) in
      let vv = Evset.to_vset e in
      (match Vset.soundness vv with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s: to_vset unsound: %s" fs m);
      if not (Evset.equal_spanner e (Evset.of_vset vv)) then
        Alcotest.failf "%s: to_vset roundtrip changed the spanner" fs)
    [ "!x{[ab]*}!y{b}!z{[ab]*}"; "a(!x{b})?c"; "!x{a*}|!x{a}a*"; "!x{!y{a}b}" ]

let evset_pp_dot () =
  let e = Evset.of_formula (Regex_formula.parse "!x{ab}") in
  let dot = Format.asprintf "%a" Evset.pp_dot e in
  check Alcotest.bool "digraph header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  let contains_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "mentions dashed set arcs" true (contains_sub dot "style=dashed");
  check Alcotest.bool "mentions accepting state" true (contains_sub dot "doublecircle")

(* ------------------------------------------------------------------ *)
(* Enumeration (§2.5) *)

let enumeration_matches_oracle () =
  let formulas =
    [
      "!x{[ab]*}!y{b}!z{[ab]*}";
      "[ab]*!x{a[ab]}[ab]*";
      ".*!x{.*}.*";
      "a(!x{b})?c";
      "!x{a*}!y{b*}";
      "(!x{a+}|!y{b+})[ab]*";
    ]
  in
  List.iter
    (fun fs ->
      let e = Evset.of_formula (Regex_formula.parse fs) in
      List.iter
        (fun doc ->
          let oracle = Evset.eval e doc in
          let enum = Compiled.eval (Compiled.of_evset e) doc in
          if not (Span_relation.equal oracle enum) then
            Alcotest.failf "%s on %S: enumeration differs from oracle" fs doc)
        docs)
    formulas

let prepare fs doc =
  Compiled.prepare (Compiled.of_evset (Evset.of_formula (Regex_formula.parse fs))) doc

let enumeration_duplicate_free () =
  let cur = Compiled.cursor (prepare ".*!x{.*}.*" "aaaa") in
  let seen = Hashtbl.create 16 in
  Seq.iter
    (fun tuple ->
      let key = Format.asprintf "%a" Span_tuple.pp tuple in
      if Hashtbl.mem seen key then Alcotest.failf "duplicate tuple %s" key;
      Hashtbl.add seen key ())
    (Seq.of_dispenser (fun () -> Compiled.cursor_next cur));
  check Alcotest.int "15 spans of aaaa" 15 (Hashtbl.length seen)

let enumeration_cardinal () =
  let p = prepare "[ab]*!x{a}[ab]*" "abaabbba" in
  check Alcotest.int "cardinal = #a" 4 (Compiled.cardinal p);
  check Alcotest.int "empty doc" 0 (Compiled.cardinal (prepare "[ab]*!x{a}[ab]*" ""));
  let p2 = prepare "[ab]*!x{a}[ab]*" "bbb" in
  let first p = Compiled.cursor_next (Compiled.cursor p) in
  check Alcotest.int "no match" 0 (Compiled.cardinal p2);
  check Alcotest.bool "first none" true (first p2 = None);
  check Alcotest.bool "first some" true (first p <> None)

let enumeration_seq_lazy () =
  (* the cursor hands out tuples one pull at a time and resumes where
     the last pull stopped *)
  let cur = Compiled.cursor (prepare "[a]*!x{a}[a]*" (String.make 50 'a')) in
  let s = Seq.of_dispenser (fun () -> Compiled.cursor_next cur) in
  let first3 = List.of_seq (Seq.take 3 s) in
  check Alcotest.int "take 3" 3 (List.length first3);
  check Alcotest.int "full count" 50 (3 + List.length (List.of_seq s))

let enumeration_stats () =
  let stats = Compiled.stats (prepare "[ab]*!x{ab}[ab]*" "abababab") in
  check Alcotest.int "boundaries" 9 stats.Compiled.boundaries;
  check Alcotest.bool "nodes positive" true (stats.Compiled.nodes > 0);
  check Alcotest.bool "edges positive" true (stats.Compiled.edges > 0)

(* ------------------------------------------------------------------ *)
(* Decision-module façade *)

let decision_regular () =
  let e = Evset.of_formula (Regex_formula.parse "!x{a+}b") in
  check Alcotest.bool "model checking" true
    (Decision.Regular.model_checking e "aab" (t [ ("x", 1, 3) ]));
  check Alcotest.bool "non emptiness" true (Decision.Regular.non_emptiness e "ab");
  check Alcotest.bool "satisfiability" true (Decision.Regular.satisfiability e);
  check Alcotest.bool "hierarchicality" true (Decision.Regular.hierarchicality e);
  check Alcotest.bool "containment self" true (Decision.Regular.containment e e);
  check Alcotest.bool "equivalence self" true (Decision.Regular.equivalence e e)

let () =
  Alcotest.run "automata"
    [
      ("example", [ tc "Example 1.1" `Quick example_1_1 ]);
      ( "vset",
        [
          tc "compile/accepts_marked" `Quick vset_compile_and_accept;
          tc "soundness" `Quick vset_soundness;
          tc "projection/union" `Quick vset_projection_union;
        ] );
      ( "evset-eval",
        [
          tc "empty documents" `Quick evset_eval_empty_doc;
          tc "all spans" `Quick evset_eval_all_spans;
          tc "ModelChecking" `Quick evset_accepts_tuple;
          tc "NonEmptiness/Satisfiability" `Quick evset_nonempty_satisfiable;
        ] );
      ( "evset-algebra",
        [
          tc "union vs relational" `Quick evset_union_vs_relational;
          tc "join vs relational" `Quick evset_join_vs_relational;
          tc "project vs relational" `Quick evset_project_vs_relational;
          tc "rename/duplicate" `Quick evset_rename_duplicate;
        ] );
      ( "evset-static",
        [
          tc "containment/equivalence" `Quick evset_containment;
          tc "hierarchicality" `Quick evset_hierarchical;
          tc "determinisation" `Quick evset_determinize;
          tc "to_vset roundtrip" `Quick evset_to_vset_roundtrip;
          tc "dot export" `Quick evset_pp_dot;
        ] );
      ( "enumerate",
        [
          tc "matches oracle" `Quick enumeration_matches_oracle;
          tc "duplicate free" `Quick enumeration_duplicate_free;
          tc "cardinal" `Quick enumeration_cardinal;
          tc "lazy sequence" `Quick enumeration_seq_lazy;
          tc "stats" `Quick enumeration_stats;
        ] );
      ("decision", [ tc "regular facade" `Quick decision_regular ]);
    ]
