(* Property-based tests (QCheck, registered as alcotest cases).

   Each property targets an invariant of a core data structure or an
   algebraic law the paper states:
   - ref-word encode/decode bijection (§2.1),
   - invariance under consecutive-marker reordering (§2.2),
   - spanner-algebra laws on automata (§1),
   - core-simplification correctness on random algebra terms (§2.3),
   - enumeration = oracle on random documents (§2.5),
   - SLP operations vs string operations, balance invariants (§4),
   - compressed evaluation = uncompressed evaluation (§4.2). *)

open Spanner_core
open Spanner_slp

let v = Variable.of_string
let vs = Variable.set_of_list

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 25))

let gen_doc_nonempty = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 60))

(* A random span tuple over a document. *)
let gen_tuple_for doc =
  let n = String.length doc in
  QCheck2.Gen.(
    let gen_span =
      int_range 1 (n + 1) >>= fun i ->
      int_range i (n + 1) >>= fun j -> return (Span.make i j)
    in
    list_size (0 -- 3)
      (pair (oneofl [ v "x"; v "y"; v "z" ]) gen_span)
    >>= fun bindings -> return (Span_tuple.of_list bindings))

(* A random well-formed regex formula over {a,b,c} and a variable pool.
   Bindings are kept out of iterations and distinct per concatenation,
   so the result is always well-formed (Total or Schemaless). *)
let gen_formula =
  let open QCheck2.Gen in
  let gen_plain =
    oneofl
      [
        Regex_formula.char 'a';
        Regex_formula.char 'b';
        Regex_formula.char 'c';
        Regex_formula.chars (Spanner_fa.Charset.of_string "ab");
        Regex_formula.chars Spanner_fa.Charset.full;
        Regex_formula.star (Regex_formula.char 'a');
        Regex_formula.star (Regex_formula.chars (Spanner_fa.Charset.of_string "abc"));
        Regex_formula.plus (Regex_formula.char 'b');
        Regex_formula.opt (Regex_formula.char 'c');
        Regex_formula.epsilon;
      ]
  in
  let rec gen_with_vars pool depth =
    if depth = 0 || pool = [] then gen_plain
    else
      frequency
        [
          (3, gen_plain);
          ( 2,
            match pool with
            | x :: rest ->
                gen_with_vars rest (depth - 1) >>= fun body ->
                return (Regex_formula.bind x body)
            | [] -> gen_plain );
          ( 2,
            (* split the pool across a concatenation *)
            let left_pool, right_pool =
              List.partition (fun x -> Variable.id x mod 2 = 0) pool
            in
            gen_with_vars left_pool (depth - 1) >>= fun l ->
            gen_with_vars right_pool (depth - 1) >>= fun r ->
            return (Regex_formula.concat l r) );
          ( 1,
            gen_with_vars pool (depth - 1) >>= fun l ->
            gen_with_vars pool (depth - 1) >>= fun r -> return (Regex_formula.alt l r) );
          ( 1,
            gen_with_vars [] (depth - 1) >>= fun body -> return (Regex_formula.star body) );
        ]
  in
  gen_with_vars [ v "x"; v "y"; v "z" ] 3 >>= fun f ->
  (* ensure satisfiable often enough; pad with .* on both sides *)
  return
    (Regex_formula.concat
       (Regex_formula.star (Regex_formula.chars Spanner_fa.Charset.full))
       (Regex_formula.concat f
          (Regex_formula.star (Regex_formula.chars Spanner_fa.Charset.full))))

let formula_print f = Regex_formula.to_string f

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_ref_word_roundtrip =
  QCheck2.Test.make ~name:"ref_word: (D,t) -> word -> (D,t) is the identity" ~count:500
    QCheck2.Gen.(gen_doc >>= fun doc -> gen_tuple_for doc >>= fun t -> return (doc, t))
    (fun (doc, t) ->
      let w = Ref_word.of_doc_tuple doc t in
      String.equal (Ref_word.doc w) doc && Span_tuple.equal (Ref_word.span_tuple w) t)

let prop_ref_word_validate =
  QCheck2.Test.make ~name:"ref_word: encoded words validate" ~count:500
    QCheck2.Gen.(gen_doc >>= fun doc -> gen_tuple_for doc >>= fun t -> return (doc, t))
    (fun (doc, t) ->
      let w = Ref_word.of_doc_tuple doc t in
      match Ref_word.validate (vs [ v "x"; v "y"; v "z" ]) w with
      | Ref_word.Valid _ -> true
      | Ref_word.Invalid _ -> false)

let prop_extended_roundtrip =
  QCheck2.Test.make ~name:"ref_word: extended form roundtrips (§2.2)" ~count:500
    QCheck2.Gen.(gen_doc >>= fun doc -> gen_tuple_for doc >>= fun t -> return (doc, t))
    (fun (doc, t) ->
      let w = Ref_word.of_doc_tuple doc t in
      let d, sets = Ref_word.to_extended w in
      Ref_word.represents_same w (Ref_word.of_extended d sets))

let prop_formula_eval_matches_enumeration =
  QCheck2.Test.make ~name:"enumeration = oracle on random formulas/documents (§2.5)" ~count:150
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    ~print:(fun (f, doc) -> Printf.sprintf "%s on %S" (formula_print f) doc)
    (fun (f, doc) ->
      let e = Evset.of_formula f in
      Span_relation.equal (Evset.eval e doc) (Compiled.eval (Compiled.of_evset e) doc))

let prop_model_checking_consistent =
  QCheck2.Test.make ~name:"t ∈ eval(D) iff accepts_tuple (ModelChecking)" ~count:100
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    ~print:(fun (f, doc) -> Printf.sprintf "%s on %S" (formula_print f) doc)
    (fun (f, doc) ->
      let e = Evset.of_formula f in
      let r = Evset.eval e doc in
      (* every member accepted; a few random non-members rejected *)
      List.for_all (fun t -> Evset.accepts_tuple e doc t) (Span_relation.tuples r))

let prop_union_commutes =
  QCheck2.Test.make ~name:"automaton union = relational union" ~count:80
    QCheck2.Gen.(
      gen_formula >>= fun f1 ->
      gen_formula >>= fun f2 ->
      gen_doc >>= fun doc -> return (f1, f2, doc))
    (fun (f1, f2, doc) ->
      let e1 = Evset.of_formula f1 and e2 = Evset.of_formula f2 in
      Span_relation.equal
        (Evset.eval (Evset.union e1 e2) doc)
        (Span_relation.union (Evset.eval e1 doc) (Evset.eval e2 doc)))

let prop_project_commutes =
  QCheck2.Test.make ~name:"automaton projection = relational projection" ~count:80
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    (fun (f, doc) ->
      let e = Evset.of_formula f in
      let keep = vs [ v "x" ] in
      Span_relation.equal
        (Evset.eval (Evset.project keep e) doc)
        (Span_relation.project keep (Evset.eval e doc)))

let prop_join_commutes =
  QCheck2.Test.make ~name:"automaton join = relational join" ~count:60
    QCheck2.Gen.(
      gen_formula >>= fun f1 ->
      gen_formula >>= fun f2 ->
      gen_doc >>= fun doc -> return (f1, f2, doc))
    ~print:(fun (f1, f2, doc) ->
      Printf.sprintf "%s JOIN %s on %S" (formula_print f1) (formula_print f2) doc)
    (fun (f1, f2, doc) ->
      let e1 = Evset.of_formula f1 and e2 = Evset.of_formula f2 in
      Span_relation.equal
        (Evset.eval (Evset.join e1 e2) doc)
        (Span_relation.join (Evset.eval e1 doc) (Evset.eval e2 doc)))

let prop_determinize_preserves =
  QCheck2.Test.make ~name:"determinisation preserves the spanner" ~count:60
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    (fun (f, doc) ->
      let e = Evset.of_formula f in
      let d = Evset.determinize e in
      Evset.is_deterministic d && Span_relation.equal (Evset.eval e doc) (Evset.eval d doc))

let prop_simplification =
  QCheck2.Test.make ~name:"core simplification = materialised algebra (§2.3)" ~count:60
    QCheck2.Gen.(
      gen_formula >>= fun f1 ->
      gen_formula >>= fun f2 ->
      gen_doc >>= fun doc ->
      oneofl
        [
          `Sel_union;
          `Sel_join;
          `Sel_project;
        ]
      >>= fun shape -> return (f1, f2, doc, shape))
    (fun (f1, f2, doc, shape) ->
      let z = vs [ v "x"; v "y" ] in
      let expr =
        match shape with
        | `Sel_union ->
            Algebra.Union (Algebra.Select (z, Algebra.Formula f1), Algebra.Formula f2)
        | `Sel_join ->
            Algebra.Join (Algebra.Select (z, Algebra.Formula f1), Algebra.Formula f2)
        | `Sel_project ->
            Algebra.Project (vs [ v "x" ], Algebra.Select (z, Algebra.Formula f1))
      in
      Span_relation.equal (Algebra.eval expr doc) (Core_spanner.eval_algebra expr doc))

(* ------------------------------------------------------------------ *)
(* SLP properties *)

let prop_slp_roundtrip =
  QCheck2.Test.make ~name:"slp: builders roundtrip" ~count:300 gen_doc_nonempty (fun s ->
      let store = Slp.create_store () in
      String.equal (Slp.to_string store (Builder.lz78 store s)) s
      && String.equal (Slp.to_string store (Builder.balanced_of_string store s)) s)

let prop_slp_char_at =
  QCheck2.Test.make ~name:"slp: char_at agrees with string indexing" ~count:300
    QCheck2.Gen.(
      gen_doc_nonempty >>= fun s ->
      int_range 1 (String.length s) >>= fun i -> return (s, i))
    (fun (s, i) ->
      let store = Slp.create_store () in
      let id = Builder.lz78 store s in
      Slp.char_at store id i = s.[i - 1])

let prop_slp_extract =
  QCheck2.Test.make ~name:"slp: extract_string = String.sub" ~count:300
    QCheck2.Gen.(
      gen_doc_nonempty >>= fun s ->
      int_range 1 (String.length s) >>= fun i ->
      int_range i (String.length s) >>= fun j -> return (s, i, j))
    (fun (s, i, j) ->
      let store = Slp.create_store () in
      let id = Builder.balanced_of_string store s in
      String.equal (Slp.extract_string store id i (j + 1)) (String.sub s (i - 1) (j - i + 1)))

let prop_balance_concat =
  QCheck2.Test.make ~name:"balance: concat is string concatenation + strong balance" ~count:200
    QCheck2.Gen.(pair gen_doc_nonempty gen_doc_nonempty)
    (fun (s1, s2) ->
      let store = Slp.create_store () in
      let a = Builder.lz78 store s1 and b = Builder.lz78 store s2 in
      let c = Balance.concat store a b in
      String.equal (Slp.to_string store c) (s1 ^ s2) && Slp.is_strongly_balanced store c)

let prop_balance_split =
  QCheck2.Test.make ~name:"balance: split inverts concat" ~count:200
    QCheck2.Gen.(
      gen_doc_nonempty >>= fun s ->
      int_range 0 (String.length s) >>= fun i -> return (s, i))
    (fun (s, i) ->
      let store = Slp.create_store () in
      let id = Builder.lz78 store s in
      let l, r = Balance.split store id i in
      let sl = Option.fold ~none:"" ~some:(Slp.to_string store) l in
      let sr = Option.fold ~none:"" ~some:(Slp.to_string store) r in
      String.equal (sl ^ sr) s && String.length sl = i)

let prop_rebalance =
  QCheck2.Test.make ~name:"balance: rebalance preserves document, ensures invariant" ~count:200
    gen_doc_nonempty (fun s ->
      let store = Slp.create_store () in
      let comb = Slp.of_string store s in
      let bal = Balance.rebalance store comb in
      String.equal (Slp.to_string store bal) s && Slp.is_strongly_balanced store bal)

let gen_cde_expr =
  (* random CDE expression over two base documents, with positions kept
     in range by construction; returns (s1, s2, expr) *)
  let open QCheck2.Gen in
  pair gen_doc_nonempty gen_doc_nonempty >>= fun (s1, s2) ->
  let rec gen depth current =
    (* [current] is the string value of the expression built so far *)
    if depth = 0 then return (Cde.Doc "A", s1)
    else
      let la = String.length current in
      frequency
        [
          (1, return (Cde.Doc "A", s1));
          (1, return (Cde.Doc "B", s2));
          ( 2,
            gen (depth - 1) current >>= fun (e1, v1) ->
            gen (depth - 1) current >>= fun (e2, v2) -> return (Cde.Concat (e1, e2), v1 ^ v2) );
          ( 2,
            gen (depth - 1) current >>= fun (e1, v1) ->
            if String.length v1 = 0 then return (e1, v1)
            else
              int_range 1 (String.length v1) >>= fun i ->
              int_range i (String.length v1) >>= fun j ->
              return (Cde.Extract (e1, i, j), String.sub v1 (i - 1) (j - i + 1)) );
          ( 1,
            gen (depth - 1) current >>= fun (e1, v1) ->
            gen (depth - 1) current >>= fun (e2, v2) ->
            int_range 1 (String.length v1 + 1) >>= fun k ->
            return
              ( Cde.Insert (e1, e2, k),
                String.sub v1 0 (k - 1) ^ v2 ^ String.sub v1 (k - 1) (String.length v1 - k + 1)
              ) );
        ]
      >>= fun (e, value) -> ignore la; return (e, value)
  in
  gen 3 s1 >>= fun (e, value) -> return (s1, s2, e, value)

let prop_cde =
  QCheck2.Test.make ~name:"cde: eval = reference string semantics (§4.3)" ~count:150 gen_cde_expr
    ~print:(fun (s1, s2, e, _) ->
      Format.asprintf "A=%S B=%S expr=%a" s1 s2 Cde.pp e)
    (fun (s1, s2, e, expected) ->
      let db = Doc_db.create () in
      ignore (Doc_db.add_string db "A" s1);
      ignore (Doc_db.add_string db "B" s2);
      let store = Doc_db.store db in
      let got = Cde.eval db e in
      String.equal (Slp.to_string store got) expected
      && Slp.is_strongly_balanced store got)

let prop_slp_spanner =
  QCheck2.Test.make ~name:"compressed evaluation = uncompressed (§4.2)" ~count:80
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc_nonempty >>= fun doc -> return (f, doc))
    ~print:(fun (f, doc) -> Printf.sprintf "%s on %S" (formula_print f) doc)
    (fun (f, doc) ->
      let store = Slp.create_store () in
      let e = Evset.of_formula f in
      let engine = Slp_spanner.create e store in
      let id = Builder.lz78 store doc in
      let compressed = Slp_spanner.to_relation engine id in
      let uncompressed = Evset.eval e doc in
      Span_relation.equal compressed uncompressed
      && Slp_spanner.tuple_count engine id = Span_relation.cardinal uncompressed)

let prop_accept =
  QCheck2.Test.make ~name:"slp acceptance = decompressed acceptance (§4.2)" ~count:200
    gen_doc_nonempty (fun s ->
      let store = Slp.create_store () in
      let nfa = Spanner_fa.Nfa.of_regex (Spanner_fa.Regex.parse "[abc]*ab[abc]*c?") in
      let cache = Accept.make_cache nfa store in
      let id = Builder.lz78 store s in
      Accept.accepts cache id = Spanner_fa.Nfa.accepts nfa s)


(* ------------------------------------------------------------------ *)
(* Extension libraries: context-free, weighted, split                  *)

let prop_cf_regular_embedding =
  QCheck2.Test.make ~name:"context-free evaluator = automaton evaluator on regular formulas (E10)"
    ~count:40
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    ~print:(fun (f, doc) -> Printf.sprintf "%s on %S" (formula_print f) doc)
    (fun (f, doc) ->
      (* CYK is cubic: keep documents small *)
      let doc = if String.length doc > 12 then String.sub doc 0 12 else doc in
      let cf = Spanner_cfg.Cf_spanner.of_formula f in
      let re = Evset.of_formula f in
      Span_relation.equal (Spanner_cfg.Cf_spanner.eval cf doc) (Evset.eval re doc))

module Wbool = Spanner_weighted.Weighted.Make (Spanner_weighted.Semiring.Boolean)
module Wcount = Spanner_weighted.Weighted.Make (Spanner_weighted.Semiring.Count)

let prop_weighted_boolean =
  QCheck2.Test.make ~name:"boolean-weighted = ordinary semantics" ~count:60
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    (fun (f, doc) ->
      let e = Evset.of_formula f in
      let w = Wbool.uniform e in
      let r = Evset.eval e doc in
      List.for_all (fun t -> Wbool.tuple_weight w doc t) (Span_relation.tuples r)
      && Wbool.total_weight w doc = not (Span_relation.is_empty r))

let prop_weighted_det_count =
  QCheck2.Test.make ~name:"deterministic automaton: total count = cardinality" ~count:40
    QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
    (fun (f, doc) ->
      let e = Evset.determinize (Evset.of_formula f) in
      let w = Wcount.uniform e in
      Wcount.total_weight w doc = Span_relation.cardinal (Evset.eval e doc))

let prop_split_compose =
  QCheck2.Test.make ~name:"split composition = distributed evaluation" ~count:40
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      string_size ~gen:(oneofl [ 'a'; 'b'; ';' ]) (0 -- 14) >>= fun doc -> return (f, doc))
    ~print:(fun (f, doc) -> Printf.sprintf "%s on %S" (formula_print f) doc)
    (fun (f, doc) ->
      let p = Split.segments_splitter ~sep:';' in
      let s = Evset.of_formula f in
      Span_relation.equal
        (Evset.eval (Split.compose p s) doc)
        (Split.split_eval p s doc))


let gen_spans =
  QCheck2.Gen.(
    list_size (1 -- 25)
      ( int_range 1 30 >>= fun i ->
        int_range i 30 >>= fun j -> return (Span.make i j) ))

let prop_consolidate_maximal =
  QCheck2.Test.make ~name:"consolidation: contained-within keeps exactly the maximal spans"
    ~count:300 gen_spans (fun spans ->
      let kept = Consolidate.dominant_spans Consolidate.Contained_within spans in
      (* no kept span strictly contained in any input span *)
      List.for_all
        (fun k ->
          not
            (List.exists (fun s -> Span.contains s k && not (Span.equal s k)) spans))
        kept
      (* every dropped span is strictly contained in some kept one's cover *)
      && List.for_all
           (fun s ->
             List.exists (fun k -> Span.contains k s) kept)
           spans)

let prop_consolidate_leftmost_disjoint =
  QCheck2.Test.make ~name:"consolidation: leftmost-longest output is pairwise disjoint"
    ~count:300 gen_spans (fun spans ->
      let kept = Consolidate.dominant_spans Consolidate.Left_to_right spans in
      let rec pairwise = function
        | [] -> true
        | s :: rest -> List.for_all (Span.disjoint s) rest && pairwise rest
      in
      pairwise kept)

let prop_consolidate_idempotent =
  QCheck2.Test.make ~name:"consolidation: policies are idempotent" ~count:300 gen_spans
    (fun spans ->
      List.for_all
        (fun policy ->
          let once = Consolidate.dominant_spans policy spans in
          let twice = Consolidate.dominant_spans policy once in
          List.length once = List.length twice
          && List.for_all2 Span.equal (List.sort Span.compare once)
               (List.sort Span.compare twice))
        [ Consolidate.Contained_within; Consolidate.Left_to_right; Consolidate.Exact_overlap ])

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [
      ( "ref_word",
        to_alcotest [ prop_ref_word_roundtrip; prop_ref_word_validate; prop_extended_roundtrip ]
      );
      ( "spanners",
        to_alcotest
          [
            prop_formula_eval_matches_enumeration;
            prop_model_checking_consistent;
            prop_union_commutes;
            prop_project_commutes;
            prop_join_commutes;
            prop_determinize_preserves;
            prop_simplification;
          ] );
      ( "consolidation",
        to_alcotest
          [
            prop_consolidate_maximal;
            prop_consolidate_leftmost_disjoint;
            prop_consolidate_idempotent;
          ] );
      ( "extensions",
        to_alcotest
          [
            prop_cf_regular_embedding;
            prop_weighted_boolean;
            prop_weighted_det_count;
            prop_split_compose;
          ] );
      ( "slp",
        to_alcotest
          [
            prop_slp_roundtrip;
            prop_slp_char_at;
            prop_slp_extract;
            prop_balance_concat;
            prop_balance_split;
            prop_rebalance;
            prop_cde;
            prop_slp_spanner;
            prop_accept;
          ] );
    ]
