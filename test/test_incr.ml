(* Differential tests for the incremental evaluation subsystem:

   - Incr.eval on the initial document and after every edit of a random
     CDE script equals the from-scratch compiled evaluation of the
     decompressed document (≥500 random cases), including with a tiny
     cache that forces evictions.
   - Cache-stats sanity: re-evaluating an unchanged document is 100%
     hits; documents sharing nodes (Figure 1) share summaries.
   - Error paths of Incr.edit (out-of-range positions, unknown names). *)

open Spanner_core
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Figure1 = Spanner_slp.Figure1
module Incr = Spanner_incr.Incr
module Plan = Spanner_engine.Plan

(* ------------------------------------------------------------------ *)
(* Generators *)

(* A pool of well-formed formulas (all accepted by Regex_formula.parse)
   with varied shapes: sequential vars, nested vars, alternation under a
   var, no vars at all. *)
let formula_pool =
  List.map Regex_formula.parse
    [
      "!x{[ab]*}!y{b}!z{[ab]*}";
      ".*!x{ab}.*";
      "!x{a*}b*!y{c?}.*";
      ".*!x{b!y{c*}}.*";
      "[abc]*";
      ".*!x{a|bc}.*";
    ]

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 30))

(* Edit intents carry raw integers; they are clamped against the live
   document length when applied, so every script is valid on whatever
   document the previous edits produced. *)
type intent = { tag : int; a : int; b : int; c : int }

let gen_intent =
  QCheck2.Gen.(
    int_range 0 4 >>= fun tag ->
    int_bound 1000 >>= fun a ->
    int_bound 1000 >>= fun b ->
    int_bound 1000 >>= fun c -> return { tag; a; b; c })

let gen_case =
  QCheck2.Gen.(
    oneofl formula_pool >>= fun f ->
    gen_doc >>= fun doc ->
    list_size (1 -- 6) gen_intent >>= fun script -> return (f, doc, script))

let print_case (f, doc, script) =
  Printf.sprintf "%s on %S, %d edit(s): %s" (Regex_formula.to_string f) doc
    (List.length script)
    (String.concat "; "
       (List.map (fun { tag; a; b; c } -> Printf.sprintf "(%d,%d,%d,%d)" tag a b c) script))

(* Build a concrete in-range edit from an intent and the current
   length.  Factors stay short (≤ 5) so scripts cannot blow up the
   document; [Delete] never empties it. *)
let make_edit len { tag; a; b; c } =
  let pos n x = 1 + (x mod n) in
  let doc = Cde.Doc "doc" in
  match tag with
  | 0 ->
      (* extract a short non-empty factor *)
      let i = pos len a in
      let j = min len (i + (b mod 5)) in
      Cde.Extract (doc, i, j)
  | 1 when len >= 2 ->
      (* delete a factor, but never the whole document *)
      let i = pos len a in
      let j = min len (i + (b mod 5)) in
      if i = 1 && j = len then Cde.Delete (doc, 1, len - 1) else Cde.Delete (doc, i, j)
  | 2 ->
      (* insert a copy of a factor of the document into itself *)
      let i = pos len a in
      let j = min len (i + (b mod 5)) in
      Cde.Insert (doc, Cde.Extract (doc, i, j), pos (len + 1) c)
  | 3 ->
      let i = pos len a in
      let j = min len (i + (b mod 5)) in
      Cde.Copy (doc, i, j, pos (len + 1) c)
  | _ -> Cde.Concat (doc, doc)

(* ------------------------------------------------------------------ *)
(* Differential: Incr = from-scratch Compiled, after every edit *)

let incr_equals_compiled ?cache_capacity (f, doc, script) =
  let ct = Compiled.of_formula f in
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  ignore (Doc_db.add_string db "doc" doc);
  let s = Incr.create ?cache_capacity ct db in
  let agrees id relation =
    Span_relation.equal relation (Compiled.eval ct (Slp.to_string store id))
  in
  let root = Doc_db.find db "doc" in
  agrees root (Incr.eval s root)
  && List.for_all
       (fun intent ->
         let len = Slp.len store (Doc_db.find db "doc") in
         let id, relation = Incr.edit s "doc" (make_edit len intent) in
         agrees id relation)
       script

let prop_incr_equals_compiled =
  QCheck2.Test.make
    ~name:"incr = compiled from scratch, initially and after every edit of a random script"
    ~count:500 gen_case ~print:print_case (incr_equals_compiled ?cache_capacity:None)

let prop_incr_tiny_cache =
  QCheck2.Test.make
    ~name:"incr with a 4-entry cache (evictions forced) still = compiled from scratch"
    ~count:150 gen_case ~print:print_case
    (incr_equals_compiled ~cache_capacity:4)

(* ------------------------------------------------------------------ *)
(* Cache statistics *)

let test_warm_reeval () =
  let ct = Compiled.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" "abbababbabab");
  let s = Incr.create ct db in
  let cold = Incr.eval_doc s "doc" in
  let st = Incr.stats s in
  Alcotest.(check bool) "cold run misses" true (st.Incr.misses > 0);
  Incr.reset_stats s;
  let warm = Incr.eval_doc s "doc" in
  let st = Incr.stats s in
  Alcotest.(check int) "warm run: no misses" 0 st.Incr.misses;
  Alcotest.(check bool) "warm run: some hits" true (st.Incr.hits > 0);
  Alcotest.(check int) "warm run: no evictions" 0 st.Incr.evictions;
  Alcotest.(check bool) "same relation" true (Span_relation.equal cold warm)

let test_figure1_sharing () =
  (* A3 is a sub-DAG of A1 = (A3, C): after evaluating D1, evaluating
     D3 touches only cached nodes. *)
  let fig = Figure1.build () in
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{bc}.*") in
  let s = Incr.create ct fig.Figure1.db in
  let r1 = Incr.eval_doc s "D1" in
  Incr.reset_stats s;
  let r3 = Incr.eval_doc s "D3" in
  let st = Incr.stats s in
  Alcotest.(check int) "D3 after D1: no misses" 0 st.Incr.misses;
  Alcotest.(check bool) "D3 after D1: hits" true (st.Incr.hits > 0);
  Alcotest.(check bool)
    "relations match compiled" true
    (Span_relation.equal r1 (Compiled.eval ct "ababbcabca")
    && Span_relation.equal r3 (Compiled.eval ct "ababbca"))

let test_eval_all () =
  let fig = Figure1.build () in
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{bc}.*") in
  let s = Incr.create ct fig.Figure1.db in
  let results =
    List.concat_map
      (fun name -> Array.to_list (Plan.relations (Plan.make ct (Plan.Session (s, name)))))
      (Doc_db.names fig.Figure1.db)
  in
  Alcotest.(check (list string))
    "designation order" (Doc_db.names fig.Figure1.db) (List.map fst results);
  List.iter
    (fun (name, r) ->
      let doc = Slp.to_string (Doc_db.store fig.Figure1.db) (Doc_db.find fig.Figure1.db name) in
      match r with
      | Ok r ->
          Alcotest.(check bool) (name ^ " matches compiled") true
            (Span_relation.equal r (Compiled.eval ct doc))
      | Error e -> Alcotest.failf "%s failed: %s" name (Printexc.to_string e))
    results

let test_edit_errors () =
  let ct = Compiled.of_formula (Regex_formula.parse "[ab]*") in
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" "ab");
  let s = Incr.create ct db in
  Alcotest.check_raises "out-of-range delete"
    (Invalid_argument "Cde.eval: delete range [5..9] out of bounds (length 2)") (fun () ->
      ignore (Incr.edit s "doc" (Cde.Delete (Cde.Doc "doc", 5, 9))));
  Alcotest.check_raises "unknown document" Not_found (fun () ->
      ignore (Incr.edit s "doc" (Cde.Concat (Cde.Doc "doc", Cde.Doc "nope"))));
  (* failed edits leave the database untouched *)
  Alcotest.(check (list string)) "names unchanged" [ "doc" ] (Doc_db.names db)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "incr"
    [
      ("differential", to_alcotest [ prop_incr_equals_compiled; prop_incr_tiny_cache ]);
      ( "cache",
        [
          Alcotest.test_case "warm re-evaluation is 100% hits" `Quick test_warm_reeval;
          Alcotest.test_case "Figure 1 sharing across documents" `Quick test_figure1_sharing;
          Alcotest.test_case "eval_all over the database" `Quick test_eval_all;
          Alcotest.test_case "edit error paths" `Quick test_edit_errors;
        ] );
    ]
