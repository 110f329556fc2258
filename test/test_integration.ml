(* Cross-library integration tests: full pipelines combining the
   spanner layers with the SLP substrate — the end-to-end scenarios the
   paper's sections compose (compress → balance → evaluate → edit →
   re-evaluate), plus a consistency matrix pitting all four evaluation
   routes against each other. *)

open Spanner_core
open Spanner_refl
open Spanner_slp
module X = Spanner_util.Xoshiro
module Cursor = Spanner_engine.Cursor

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string
let vs = Variable.set_of_list

(* ------------------------------------------------------------------ *)
(* Four-way consistency: naive oracle, uncompressed enumeration,
   compressed enumeration, and ModelChecking of every produced tuple *)

let four_way_consistency () =
  let rng = X.create 2024 in
  let store = Slp.create_store () in
  let formulas =
    [ "!x{[ab]+}c!y{[ab]+}"; "[abc]*!x{ab?c}[abc]*"; "(!x{a+})?!y{[bc]+}"; ".*!x{..}.*" ]
  in
  List.iter
    (fun fs ->
      let e = Evset.of_formula (Regex_formula.parse fs) in
      let engine = Slp_spanner.create e store in
      for _ = 1 to 10 do
        let doc = X.string rng "abc" (1 + X.int rng 30) in
        let oracle = Evset.eval e doc in
        let enum = Compiled.eval (Compiled.of_evset e) doc in
        let slp = Slp_spanner.to_relation engine (Builder.lz78 store doc) in
        if not (Span_relation.equal oracle enum) then
          Alcotest.failf "%s/%S: enumeration diverges" fs doc;
        if not (Span_relation.equal oracle slp) then
          Alcotest.failf "%s/%S: compressed evaluation diverges" fs doc;
        List.iter
          (fun tuple ->
            if not (Evset.accepts_tuple e doc tuple) then
              Alcotest.failf "%s/%S: ModelChecking rejects an output tuple" fs doc)
          (Span_relation.tuples oracle)
      done)
    formulas

(* ------------------------------------------------------------------ *)
(* The compress → balance → query → edit → re-query pipeline of §4 *)

let compressed_editing_pipeline () =
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  (* two "log files" with heavy repetition *)
  let log1 = String.concat "" (List.init 50 (fun i -> if i mod 7 = 0 then "err;" else "ok;;")) in
  let log2 = String.concat "" (List.init 30 (fun _ -> "ok;;")) in
  ignore (Doc_db.add_string db "log1" log1);
  ignore (Doc_db.add_string db "log2" log2);
  check Alcotest.bool "db balanced" true
    (List.for_all
       (fun n -> Slp.is_strongly_balanced store (Doc_db.find db n))
       (Doc_db.names db));
  let spanner = Evset.of_formula (Regex_formula.parse "[ok;er]*!x{err}[ok;er]*") in
  let engine = Slp_spanner.create spanner store in
  let count name = Slp_spanner.tuple_count engine (Doc_db.find db name) in
  check Alcotest.int "log1 errors" 8 (count "log1");
  check Alcotest.int "log2 errors" 0 (count "log2");
  (* edit: splice the head of log1 (with its error) into log2 *)
  let edited =
    Cde.materialize db "log2_patched"
      (Cde.Insert (Cde.Doc "log2", Cde.Extract (Cde.Doc "log1", 1, 8), 5))
  in
  check Alcotest.bool "edit keeps balance" true (Slp.is_strongly_balanced store edited);
  check Alcotest.int "patched has the error" 1 (count "log2_patched");
  (* the compressed answer agrees with decompress-and-run *)
  let doc = Slp.to_string store edited in
  check Alcotest.int "vs uncompressed" (Span_relation.cardinal (Evset.eval spanner doc))
    (count "log2_patched")

(* ------------------------------------------------------------------ *)
(* Core spanner over a compressed document: simplified form evaluated
   by the compressed automaton pipeline + selection post-filter *)

let core_spanner_over_slp () =
  let store = Slp.create_store () in
  let core =
    Core_spanner.simplify
      (Algebra.Select (vs [ v "x"; v "y" ], Algebra.formula "!x{[ab]+};!y{[ab]+};[ab;]*"))
  in
  let doc = "ab;ab;aa;bb;" in
  let id = Builder.lz78 store doc in
  (* evaluate the regular part compressed, then filter *)
  let engine = Slp_spanner.create core.Core_spanner.automaton store in
  let hash = Spanner_util.Strhash.make doc in
  let filtered = ref [] in
  Slp_spanner.prepare engine id;
  Cursor.iter (Cursor.of_slp engine id) (fun tuple ->
      let ok =
        List.for_all
          (fun z ->
            let spans =
              Variable.Set.fold
                (fun x acc ->
                  match Span_tuple.find tuple x with None -> acc | Some s -> s :: acc)
                z []
            in
            match spans with
            | [] | [ _ ] -> true
            | first :: rest ->
                List.for_all
                  (fun s ->
                    Spanner_util.Strhash.equal_span hash
                      ~a:(Span.left first - 1, Span.right first - 1)
                      ~b:(Span.left s - 1, Span.right s - 1))
                  rest)
          core.Core_spanner.selections
      in
      if ok then filtered := Span_tuple.project core.Core_spanner.projection tuple :: !filtered);
  let compressed_result =
    Span_relation.of_list (Core_spanner.schema core) !filtered
  in
  let reference = Core_spanner.eval core doc in
  check Alcotest.bool "core spanner over SLP matches" true
    (Span_relation.equal compressed_result reference);
  check Alcotest.bool "found the repeated field" true
    (Span_relation.mem reference
       (Span_tuple.of_list [ (v "x", Span.make 1 3); (v "y", Span.make 4 6) ]))

(* ------------------------------------------------------------------ *)
(* Refl-spanner vs its core translation on documents reconstructed
   from an SLP *)

let refl_core_slp_roundtrip () =
  let store = Slp.create_store () in
  let refl = Refl_spanner.parse "!x{[ab]+};&x;[ab;]*" in
  let core = Refl_spanner.to_core refl in
  let rng = X.create 5 in
  for _ = 1 to 10 do
    let field = X.string rng "ab" (1 + X.int rng 4) in
    let doc = field ^ ";" ^ field ^ ";" ^ X.string rng "ab;" (X.int rng 8) in
    let id = Builder.lz78 store doc in
    let doc' = Slp.to_string store id in
    check Alcotest.string "slp roundtrip" doc doc';
    let r1 = Refl_spanner.eval refl doc' in
    let r2 = Core_spanner.eval core doc' in
    if not (Span_relation.equal r1 r2) then Alcotest.failf "refl/core diverge on %S" doc;
    check Alcotest.bool "found" true (Span_relation.cardinal r1 >= 1)
  done

(* ------------------------------------------------------------------ *)
(* Figure 1 database queried end to end *)

let figure1_end_to_end () =
  let fig = Figure1.build () in
  let db = fig.Figure1.db in
  let store = Doc_db.store db in
  let _ = Figure1.extend fig in
  (* spanner: occurrences of "bca" *)
  let e = Evset.of_formula (Regex_formula.parse "[abc]*!x{bca}[abc]*") in
  let engine = Slp_spanner.create e store in
  let counts =
    List.map
      (fun name -> (name, Slp_spanner.tuple_count engine (Doc_db.find db name)))
      (Doc_db.names db)
  in
  List.iter
    (fun (name, count) ->
      let doc = Slp.to_string store (Doc_db.find db name) in
      let expected = Span_relation.cardinal (Evset.eval e doc) in
      check Alcotest.int (name ^ " occurrences") expected count)
    counts;
  (* D1 = ababbcabca has bca at positions 4..6 and 8..10 *)
  check Alcotest.int "D1 = 2 occurrences" 2 (List.assoc "D1" counts);
  (* enumeration yields the same spans as the uncompressed route *)
  let d1 = Doc_db.find db "D1" in
  let r = Slp_spanner.to_relation engine d1 in
  check Alcotest.bool "span [5,8⟩" true
    (Span_relation.mem r (Span_tuple.of_list [ (v "x", Span.make 5 8) ]));
  check Alcotest.bool "span [8,11⟩" true
    (Span_relation.mem r (Span_tuple.of_list [ (v "x", Span.make 8 11) ]))

(* ------------------------------------------------------------------ *)
(* Decision problems agree across representations *)

let decisions_across_representations () =
  let f = Regex_formula.parse "!x{a+}b!y{a+}" in
  let e = Evset.of_formula f in
  let d = Evset.determinize e in
  let docs = [ "aba"; "aabaa"; "ab"; "ba"; "aabb" ] in
  List.iter
    (fun doc ->
      check Alcotest.bool ("nonempty agree on " ^ doc) (Evset.nonempty_on e doc)
        (Evset.nonempty_on d doc))
    docs;
  check Alcotest.bool "equal spanners" true (Evset.equal_spanner e d);
  check Alcotest.bool "both satisfiable" true (Evset.satisfiable e && Evset.satisfiable d);
  (* joining with itself is identity for spanners *)
  check Alcotest.bool "self join identity" true (Evset.equal_spanner e (Evset.join e e));
  (* union with itself is identity *)
  check Alcotest.bool "self union identity" true (Evset.equal_spanner e (Evset.union e e))

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          tc "four-way evaluation consistency" `Quick four_way_consistency;
          tc "compress-balance-query-edit (§4)" `Quick compressed_editing_pipeline;
          tc "core spanner over SLP" `Quick core_spanner_over_slp;
          tc "refl/core over SLP documents" `Quick refl_core_slp_roundtrip;
          tc "Figure 1 end to end" `Quick figure1_end_to_end;
          tc "decisions across representations" `Quick decisions_across_representations;
        ] );
    ]
