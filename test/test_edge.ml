(* Adversarial and edge-case tests across the stack: full-byte-range
   documents (the library works on arbitrary bytes, not just text),
   pathological ambiguity, deep nesting, empty languages, and
   scale smoke tests. *)

open Spanner_core
module X = Spanner_util.Xoshiro

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string

(* ------------------------------------------------------------------ *)
(* Arbitrary bytes *)

let binary_documents () =
  (* documents containing NUL, 0xFF and friends flow through the whole
     pipeline *)
  let doc = "\x00\xffa\x00b\xff\x00" in
  let e = Evset.of_formula (Regex_formula.parse ".*!x{\x00}.*") in
  let r = Evset.eval e doc in
  check Alcotest.int "three NULs" 3 (Span_relation.cardinal r);
  check Alcotest.bool "enumeration agrees" true
    (Span_relation.equal r (Compiled.eval (Compiled.of_evset e) doc));
  (* negated classes across the byte range *)
  let e2 = Evset.of_formula (Regex_formula.parse "[^\x00]*") in
  check Alcotest.bool "no NUL" true (Evset.nonempty_on e2 "abc\xff");
  check Alcotest.bool "has NUL" false (Evset.nonempty_on e2 "a\x00b")

let binary_slp () =
  let store = Spanner_slp.Slp.create_store () in
  let rng = X.create 3 in
  for _ = 1 to 20 do
    let doc = String.init (1 + X.int rng 100) (fun _ -> Char.chr (X.int rng 256)) in
    let id = Spanner_slp.Builder.lz78 store doc in
    if Spanner_slp.Slp.to_string store id <> doc then
      Alcotest.failf "binary roundtrip failed"
  done

(* ------------------------------------------------------------------ *)
(* Pathological ambiguity *)

let highly_ambiguous_enumeration () =
  (* (a|a|aa)* is massively ambiguous as a language; the spanner still
     enumerates each *tuple* exactly once *)
  let e = Evset.of_formula (Regex_formula.parse "(a|aa)*!x{a?}(a|aa)*") in
  let doc = String.make 14 'a' in
  let p = Compiled.prepare (Compiled.of_evset e) doc in
  let seen = Hashtbl.create 64 in
  let cur = Compiled.cursor p in
  Seq.iter
    (fun t ->
      let key = Format.asprintf "%a" Span_tuple.pp t in
      if Hashtbl.mem seen key then Alcotest.failf "duplicate %s" key;
      Hashtbl.add seen key ())
    (Seq.of_dispenser (fun () -> Compiled.cursor_next cur));
  (* x binds either an empty span (15 positions) or one a (14) — plus
     the schemaless unbound case is impossible (x always bound) *)
  check Alcotest.int "tuples" 29 (Hashtbl.length seen);
  check Alcotest.int "cardinal agrees" 29 (Compiled.cardinal p)

let quadratic_output () =
  (* all spans of a^60: 61·62/2 = 1891 tuples through all three routes *)
  let e = Evset.of_formula (Regex_formula.parse ".*!x{.*}.*") in
  let doc = String.make 60 'a' in
  check Alcotest.int "enumerate" 1891
    (Compiled.cardinal (Compiled.prepare (Compiled.of_evset e) doc));
  let store = Spanner_slp.Slp.create_store () in
  let engine = Spanner_slp.Slp_spanner.create e store in
  check Alcotest.int "compressed" 1891
    (Spanner_slp.Slp_spanner.cardinal engine (Spanner_slp.Builder.lz78 store doc))

(* ------------------------------------------------------------------ *)
(* Deep structures *)

let deeply_nested_formula () =
  (* 50 nested bindings *)
  let vars = List.init 50 (fun i -> v (Printf.sprintf "nest%d" i)) in
  let f =
    List.fold_left (fun inner x -> Regex_formula.bind x inner) (Regex_formula.char 'a') vars
  in
  let e = Evset.of_formula f in
  let r = Evset.eval e "a" in
  check Alcotest.int "one tuple" 1 (Span_relation.cardinal r);
  let t = List.hd (Span_relation.tuples r) in
  check Alcotest.int "all 50 bound" 50 (Variable.Set.cardinal (Span_tuple.domain t));
  List.iter
    (fun x -> check Alcotest.bool "span is [1,2⟩" true
        (Span.equal (Span_tuple.get t x) (Span.make 1 2)))
    vars

let long_linear_document () =
  (* linear-time paths stay fast at 1M characters (smoke, not timing) *)
  let n = 1 lsl 20 in
  let doc = String.make (n - 1) 'a' ^ "b" in
  let e = Evset.of_formula (Regex_formula.parse "!x{a*}b") in
  let t = Span_tuple.of_list [ (v "x", Span.make 1 n) ] in
  check Alcotest.bool "model check 1M" true (Evset.accepts_tuple e doc t);
  check Alcotest.bool "nonempty 1M" true (Evset.nonempty_on e doc);
  let refl = Spanner_refl.Refl_spanner.parse "!x{a+}b&x" in
  let half = String.make 1000 'a' in
  let doc2 = half ^ "b" ^ half in
  let t2 = Span_tuple.of_list [ (v "x", Span.make 1 1001) ] in
  check Alcotest.bool "refl mc large" true (Spanner_refl.Refl_spanner.model_check refl doc2 t2)

(* ------------------------------------------------------------------ *)
(* Empty languages and degenerate inputs *)

let degenerate_cases () =
  let dead = Evset.of_formula (Regex_formula.parse "!x{a}[]") in
  check Alcotest.int "eval of dead spanner" 0 (Span_relation.cardinal (Evset.eval dead "aaa"));
  check Alcotest.int "enumerate dead" 0
    (Compiled.cardinal (Compiled.prepare (Compiled.of_evset dead) "aaa"));
  check Alcotest.bool "join with dead is dead" false
    (Evset.satisfiable (Evset.join dead (Evset.of_formula (Regex_formula.parse "!x{a}"))));
  (* empty doc through every route *)
  let opt = Evset.of_formula (Regex_formula.parse "(!x{a})?") in
  check Alcotest.int "empty doc schemaless" 1 (Span_relation.cardinal (Evset.eval opt ""));
  check Alcotest.bool "empty tuple member" true (Evset.accepts_tuple opt "" Span_tuple.empty);
  (* union of a spanner with itself is itself *)
  check Alcotest.bool "idempotent union" true (Evset.equal_spanner opt (Evset.union opt opt))

let strhash_adversarial () =
  (* many equal-length distinct factors: no false positives observed *)
  let rng = X.create 1234 in
  let doc = X.string rng "ab" 4000 in
  let h = Spanner_util.Strhash.make doc in
  let len = 16 in
  for _ = 1 to 2000 do
    let i = X.int rng (4000 - len) in
    let j = X.int rng (4000 - len) in
    let want = String.sub doc i len = String.sub doc j len in
    if Spanner_util.Strhash.equal_sub h i j len <> want then
      Alcotest.failf "hash disagreement at %d/%d" i j
  done

let consolidation_after_compressed_route () =
  (* policies compose with the compressed evaluation route *)
  let e = Evset.of_formula (Regex_formula.parse ".*!x{a+}.*") in
  let store = Spanner_slp.Slp.create_store () in
  let engine = Spanner_slp.Slp_spanner.create e store in
  let doc = "aaabaa" in
  let id = Spanner_slp.Builder.lz78 store doc in
  let r = Spanner_slp.Slp_spanner.to_relation engine id in
  let maximal = Consolidate.consolidate Consolidate.Contained_within ~on:(v "x") r in
  check Alcotest.int "maximal a-runs" 2 (Span_relation.cardinal maximal)

let () =
  Alcotest.run "edge-cases"
    [
      ( "bytes",
        [ tc "binary documents" `Quick binary_documents; tc "binary SLPs" `Quick binary_slp ] );
      ( "ambiguity",
        [
          tc "duplicate-free under heavy ambiguity" `Quick highly_ambiguous_enumeration;
          tc "quadratic output" `Quick quadratic_output;
        ] );
      ( "depth-and-scale",
        [
          tc "50 nested bindings" `Quick deeply_nested_formula;
          tc "megabyte documents" `Slow long_linear_document;
        ] );
      ( "degenerate",
        [
          tc "empty languages / empty docs" `Quick degenerate_cases;
          tc "strhash adversarial" `Quick strhash_adversarial;
          tc "consolidation after compression" `Quick consolidation_after_compressed_route;
        ] );
    ]
