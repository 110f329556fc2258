(* A guided tour of the whole library, following the paper's sections.

   Run with:  dune exec examples/tour.exe

   Covers: regular spanners and enumeration (§1, §2.5), the algebra and
   core simplification (§2.3), the §2.4 decision problems,
   refl-spanners (§3), SLP-compressed evaluation and editing (§4),
   context-free spanners ([31]), datalog over spanners ([33]), weighted
   spanners ([8]), split-correctness ([7]), and AQL-style
   consolidation. *)

open Spanner_core

let heading title =
  Format.printf "@.=== %s ===@." title

let () =
  let v = Variable.of_string in
  let vs = Variable.set_of_list in

  heading "1. Regular spanners (Example 1.1)";
  let s = Evset.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  Format.printf "%a" (Span_relation.pp ~doc:"ababbab") (Evset.eval s "ababbab");

  heading "2. Enumeration: linear preprocessing, constant delay (§2.5)";
  let p = Compiled.prepare (Compiled.of_evset s) "ababbab" in
  Format.printf "%d tuples from %d product nodes@." (Compiled.cardinal p)
    (Compiled.stats p).Compiled.nodes;

  heading "3. The algebra and core simplification (§2.3)";
  let q =
    Algebra.Project
      ( vs [ v "u" ],
        Algebra.Select (vs [ v "u"; v "w" ], Algebra.formula "!u{[ab]+};!w{[ab]+};.*") )
  in
  let simplified = Core_spanner.simplify q in
  Format.printf "π_Y(ς=...(M)): %d automaton states, %d selection class(es)@."
    (Evset.size simplified.Core_spanner.automaton)
    (List.length simplified.Core_spanner.selections);
  Format.printf "%a" (Span_relation.pp ~doc:"ab;ab;x") (Core_spanner.eval simplified "ab;ab;x");

  heading "4. Decision problems (§2.4)";
  Format.printf "satisfiable: %b; hierarchical: %b; equivalent to itself: %b@."
    (Decision.Regular.satisfiability s)
    (Decision.Regular.hierarchicality s)
    (Decision.Regular.equivalence s s);

  heading "5. Refl-spanners: regular string equality (§3)";
  let refl = Spanner_refl.Refl_spanner.parse "!x{[ab]+};!y{&x};.*" in
  Format.printf "%a" (Span_relation.pp ~doc:"ab;ab;cd")
    (Spanner_refl.Refl_spanner.eval refl "ab;ab;cd");
  Format.printf "satisfiability is just reachability: %b@."
    (Spanner_refl.Refl_spanner.satisfiable refl);

  heading "6. Compressed documents: SLPs, evaluation, editing (§4)";
  let module Slp = Spanner_slp.Slp in
  let module Doc_db = Spanner_slp.Doc_db in
  let module Cde = Spanner_slp.Cde in
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  let big = String.concat "" (List.init 2000 (fun i -> if i = 777 then "needle;" else "haysta;")) in
  ignore (Doc_db.add_string db "big" big);
  Format.printf "|D| = %d stored in %d nodes@." (Doc_db.total_len db) (Doc_db.compressed_size db);
  let finder = Evset.of_formula (Regex_formula.parse "[a-z;]*!x{needle}[a-z;]*") in
  let engine = Spanner_slp.Slp_spanner.create finder store in
  Format.printf "matches without decompression: %d@."
    (Spanner_slp.Slp_spanner.tuple_count engine (Doc_db.find db "big"));
  let edited = Cde.materialize db "edited" (Cde.Copy (Cde.Doc "big", 5437, 5443, 1)) in
  Format.printf "after copy-editing: %d matches (still compressed)@."
    (Spanner_slp.Slp_spanner.tuple_count engine edited);

  heading "7. Context-free spanners: beyond regular ([31])";
  let dyck =
    Spanner_cfg.Cf_spanner.dyck_extractor ~x:(v "blk") ~open_c:'(' ~close_c:')'
      ~other:(Spanner_fa.Charset.of_string "ab")
  in
  Format.printf "%a" (Span_relation.pp ~doc:"a((b)a)")
    (Spanner_cfg.Cf_spanner.eval dyck "a((b)a)");

  heading "8. Datalog over spanners: recursion ([33])";
  let program =
    Spanner_datalog.Datalog.parse
      {| eq(x, y) :- <([ab]+;)*!x{[ab]+};!y{[ab]+};([ab]+;)*>(x, y), streq(x, y).
         chain(x, y) :- eq(x, y).
         chain(x, z) :- chain(x, y), eq(y, z). |}
  in
  let result = Spanner_datalog.Datalog.run program "ab;ab;ab;" in
  Format.printf "chain facts: %d (fixpoint in %d rounds)@."
    (Spanner_datalog.Datalog.fact_count result "chain")
    (Spanner_datalog.Datalog.iterations result);

  heading "9. Weighted spanners: ambiguity and best match ([8])";
  let module WC = Spanner_weighted.Weighted.Make (Spanner_weighted.Semiring.Count) in
  let ambiguous = Evset.union s s in
  let t =
    Span_tuple.of_list [ (v "x", Span.make 1 2); (v "y", Span.make 2 3); (v "z", Span.make 3 8) ]
  in
  Format.printf "runs for one tuple in S ∪ S: %d@."
    (WC.tuple_weight (WC.uniform ambiguous) "ababbab" t);

  heading "10. Split-correctness ([7])";
  let splitter = Split.segments_splitter ~sep:';' in
  let local = Evset.of_formula (Regex_formula.parse ".*!x{a+}.*") in
  let crossing = Evset.of_formula (Regex_formula.parse ".*!x{a;a}.*") in
  Format.printf "a+ extractor split-correct w.r.t. ';': %b@." (Split.split_correct splitter local);
  Format.printf "separator-crossing extractor: %b@." (Split.split_correct splitter crossing);

  heading "11. AQL-style consolidation";
  let matches = Evset.eval (Evset.of_formula (Regex_formula.parse ".*!x{a+}.*")) "aaabaa" in
  Format.printf "raw matches: %d; maximal only: %d; leftmost-longest: %d@."
    (Span_relation.cardinal matches)
    (Span_relation.cardinal
       (Consolidate.consolidate Consolidate.Contained_within ~on:(v "x") matches))
    (Span_relation.cardinal
       (Consolidate.consolidate Consolidate.Left_to_right ~on:(v "x") matches))
