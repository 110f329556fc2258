(* The streaming layer (lib/engine) against the engines it wraps:

   - Differential drains: for every engine (compiled, SLP-compressed,
     incremental) and random (formula, document) pairs, fully draining
     the cursor yields exactly Compiled.eval on the plain text.
   - Early termination: take k / first never pull more than k tuples
     from the engine (the [Cursor.pulls] instrumentation), and
     to_relation (take n c) equals the first n tuples of a full drain.
   - Consolidation composes with cursors: every policy agrees between
     a streamed and a materialised relation.
   - Cursor mechanics (peek/drop/shared take views), gauge probing
     mid-stream, and the planner's choices/execution — including
     packed corpora of 1–3 shards, where relations, drained cursors and
     Compiled.eval agree and a sweep that trips poisons only its shard. *)

open Spanner_core
module Charset = Spanner_fa.Charset
module Limits = Spanner_util.Limits
module Slp = Spanner_slp.Slp
module Builder = Spanner_slp.Builder
module Balance = Spanner_slp.Balance
module Doc_db = Spanner_slp.Doc_db
module Arena = Spanner_store.Arena
module Corpus = Spanner_store.Corpus
module Slp_spanner = Spanner_slp.Slp_spanner
module Incr = Spanner_incr.Incr
module Cursor = Spanner_engine.Cursor
module Plan = Spanner_engine.Plan

let v = Variable.of_string

(* ------------------------------------------------------------------ *)
(* Generators (same shapes as test_compiled) *)

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 25))
let gen_doc1 = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 25))

let gen_formula =
  let open QCheck2.Gen in
  let gen_plain =
    oneofl
      [
        Regex_formula.char 'a';
        Regex_formula.char 'b';
        Regex_formula.chars (Charset.of_string "ab");
        Regex_formula.chars Charset.full;
        Regex_formula.star (Regex_formula.chars (Charset.of_string "abc"));
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
            let left_pool, right_pool =
              List.partition (fun x -> Variable.id x mod 2 = 0) pool
            in
            gen_with_vars left_pool (depth - 1) >>= fun l ->
            gen_with_vars right_pool (depth - 1) >>= fun r ->
            return (Regex_formula.concat l r) );
          ( 1,
            gen_with_vars [] (depth - 1) >>= fun body -> return (Regex_formula.star body)
          );
        ]
  in
  gen_with_vars [ v "x"; v "y" ] 3 >>= fun f ->
  return
    (Regex_formula.concat
       (Regex_formula.star (Regex_formula.chars Charset.full))
       (Regex_formula.concat f
          (Regex_formula.star (Regex_formula.chars Charset.full))))

(* Formulas guaranteed to bind x — consolidation needs the column. *)
let gen_formula_x =
  let open QCheck2.Gen in
  oneofl
    [
      Regex_formula.char 'a';
      Regex_formula.chars (Charset.of_string "ab");
      Regex_formula.plus (Regex_formula.char 'b');
      Regex_formula.star (Regex_formula.chars (Charset.of_string "abc"));
    ]
  >>= fun body ->
  return
    (Regex_formula.concat
       (Regex_formula.star (Regex_formula.chars Charset.full))
       (Regex_formula.concat
          (Regex_formula.bind (v "x") body)
          (Regex_formula.star (Regex_formula.chars Charset.full))))

let gen_pair = QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))
let gen_pair1 = QCheck2.Gen.(gen_formula >>= fun f -> gen_doc1 >>= fun d -> return (f, d))
let print_pair (f, doc) = Printf.sprintf "%s on %S" (Regex_formula.to_string f) doc

(* ------------------------------------------------------------------ *)
(* Engine fixtures *)

let compiled_cursor ct doc = Cursor.of_compiled (Compiled.prepare ct doc)

let slp_fixture f doc =
  let ct = Compiled.of_formula f in
  let store = Slp.create_store () in
  let id = Balance.rebalance store (Builder.lz78 store doc) in
  let engine = Slp_spanner.of_compiled ct store in
  Slp_spanner.prepare engine id;
  (engine, id)

let incr_fixture f doc =
  let ct = Compiled.of_formula f in
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" doc);
  let session = Incr.create ct db in
  (session, Doc_db.find db "doc")

(* ------------------------------------------------------------------ *)
(* Differential drains: cursor = Compiled.eval, per engine *)

let prop_drain_compiled =
  QCheck2.Test.make ~name:"drain of_compiled = Compiled.eval" ~count:300 gen_pair
    ~print:print_pair (fun (f, doc) ->
      let ct = Compiled.of_formula f in
      Span_relation.equal (Cursor.to_relation (compiled_cursor ct doc)) (Compiled.eval ct doc))

let prop_drain_slp =
  QCheck2.Test.make ~name:"drain of_slp = Compiled.eval on the text" ~count:200 gen_pair1
    ~print:print_pair (fun (f, doc) ->
      let engine, id = slp_fixture f doc in
      Span_relation.equal
        (Cursor.to_relation (Cursor.of_slp engine id))
        (Compiled.eval (Compiled.of_formula f) doc))

let prop_drain_incr =
  QCheck2.Test.make ~name:"drain of_incr = Compiled.eval on the text" ~count:200 gen_pair1
    ~print:print_pair (fun (f, doc) ->
      let session, id = incr_fixture f doc in
      Span_relation.equal
        (Cursor.to_relation (Cursor.of_incr session id))
        (Compiled.eval (Compiled.of_formula f) doc))

(* ------------------------------------------------------------------ *)
(* Early termination: take k pulls at most k tuples from the engine *)

let firstn n xs = List.filteri (fun i _ -> i < n) xs

let pull_bound cursor_of k =
  let c = cursor_of () in
  let view = Cursor.take c k in
  let got = Cursor.to_list view in
  List.length got <= k && Cursor.pulls c <= k

let prop_take_pull_bound =
  QCheck2.Test.make ~name:"take k never pulls more than k tuples (every engine)"
    ~count:150 gen_pair1 ~print:print_pair (fun (f, doc) ->
      let ct = Compiled.of_formula f in
      let engine, sid = slp_fixture f doc in
      let session, iid = incr_fixture f doc in
      List.for_all
        (fun k ->
          pull_bound (fun () -> compiled_cursor ct doc) k
          && pull_bound (fun () -> Cursor.of_slp engine sid) k
          && pull_bound (fun () -> Cursor.of_incr session iid) k)
        [ 0; 1; 3 ])

let prop_take_prefix =
  QCheck2.Test.make ~name:"to_relation (take n c) = first n of a full drain" ~count:150
    gen_pair ~print:print_pair (fun (f, doc) ->
      let ct = Compiled.of_formula f in
      let full = Cursor.to_list (compiled_cursor ct doc) in
      List.for_all
        (fun n ->
          let windowed = Cursor.to_relation (Cursor.take (compiled_cursor ct doc) n) in
          Span_relation.equal windowed
            (Span_relation.of_list (Compiled.vars ct) (firstn n full)))
        [ 0; 1; 2; 5 ])

(* ------------------------------------------------------------------ *)
(* Consolidation composes with cursors *)

let policies =
  Consolidate.
    [ Contained_within; Not_contained_within; Left_to_right; Exact_overlap ]

let prop_consolidate_streamed =
  QCheck2.Test.make
    ~name:"consolidate(streamed relation) = consolidate(materialised relation)" ~count:200
    QCheck2.Gen.(gen_formula_x >>= fun f -> gen_doc >>= fun d -> return (f, d))
    ~print:print_pair
    (fun (f, doc) ->
      let ct = Compiled.of_formula f in
      let streamed = Cursor.to_relation (compiled_cursor ct doc) in
      let materialised = Compiled.eval ct doc in
      List.for_all
        (fun policy ->
          Span_relation.equal
            (Consolidate.consolidate policy ~on:(v "x") streamed)
            (Consolidate.consolidate policy ~on:(v "x") materialised))
        policies)

let prop_consolidate_window =
  QCheck2.Test.make
    ~name:"consolidate over take n = consolidate over first n of the drain" ~count:100
    QCheck2.Gen.(gen_formula_x >>= fun f -> gen_doc >>= fun d -> return (f, d))
    ~print:print_pair
    (fun (f, doc) ->
      let ct = Compiled.of_formula f in
      let full = Cursor.to_list (compiled_cursor ct doc) in
      List.for_all
        (fun n ->
          let windowed = Cursor.to_relation (Cursor.take (compiled_cursor ct doc) n) in
          let prefix = Span_relation.of_list (Compiled.vars ct) (firstn n full) in
          List.for_all
            (fun policy ->
              Span_relation.equal
                (Consolidate.consolidate policy ~on:(v "x") windowed)
                (Consolidate.consolidate policy ~on:(v "x") prefix))
            policies)
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Cursor mechanics *)

let example_cursor () =
  let ct = Compiled.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  compiled_cursor ct "ababbab"

let test_peek_next_drop () =
  let c = example_cursor () in
  let p = Cursor.peek c in
  Alcotest.(check bool) "peek = next" true (p = Cursor.next c);
  Cursor.drop c 1;
  Alcotest.(check int) "peek+next+drop consumed 2" 2 (Cursor.cardinal c);
  Alcotest.(check (option reject)) "exhausted" None (Cursor.next c);
  Alcotest.(check (option reject)) "stays exhausted" None (Cursor.peek c)

let test_take_shares_stream () =
  let c = example_cursor () in
  let view = Cursor.take c 2 in
  Alcotest.(check int) "view delivers 2" 2 (Cursor.cardinal view);
  Alcotest.(check (option reject)) "view exhausted" None (Cursor.next view);
  Alcotest.(check int) "parent continues with the rest" 2 (Cursor.cardinal c);
  Alcotest.(check int) "4 engine pulls total" 4 (Cursor.pulls c)

let test_gauge_trips_mid_stream () =
  let ct = Compiled.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  let g = Limits.start (Limits.make ~max_tuples:2 ()) in
  let c = Cursor.of_compiled ~gauge:g (Compiled.prepare_with_gauge g ct "ababbab") in
  Alcotest.(check bool) "tuple 1 flows" true (Cursor.next c <> None);
  Alcotest.(check bool) "tuple 2 flows" true (Cursor.next c <> None);
  Alcotest.check_raises "third pull trips"
    (Limits.Spanner_error
       (Limits.Limit_exceeded { which = Limits.Tuples; spent = 3 }))
    (fun () -> ignore (Cursor.next c))

let test_of_relation_roundtrip () =
  let ct = Compiled.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  let r = Compiled.eval ct "ababbab" in
  Alcotest.(check bool) "of_relation drains back" true
    (Span_relation.equal r (Cursor.to_relation (Cursor.of_relation r)))

(* ------------------------------------------------------------------ *)
(* Planner *)

let xyz = Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}"

let test_plan_choices () =
  let ct = Compiled.of_formula xyz in
  let check_choice name expected plan =
    Alcotest.(check bool) name true (Plan.choice plan = expected)
  in
  check_choice "plain doc -> compiled" `Compiled (Plan.make ct (Plan.Doc "ababbab"));
  check_choice "plain batch -> compiled" `Compiled
    (Plan.make ct (Plan.Docs [| ("d", "ab") |]));
  (* incompressible: 7 bytes cost 7 nodes *)
  let store = Slp.create_store () in
  let small = Balance.rebalance store (Builder.lz78 store "ababbab") in
  check_choice "ratio 1.0 -> decompress" `Decompress
    (Plan.make ct (Plan.Slp_node (store, small)));
  (* highly repetitive: the sweep wins *)
  let big = Balance.rebalance store (Builder.lz78 store (String.concat "" (List.init 256 (fun _ -> "ab")))) in
  check_choice "high ratio -> compressed" `Compressed
    (Plan.make ct (Plan.Slp_node (store, big)));
  let session, id = incr_fixture xyz "ababbab" in
  let sp = Plan.make ct (Plan.Session (session, "doc")) in
  check_choice "session -> incr" `Incr sp;
  (* make no longer walks the session's document; rationale still
     reports its reachable nodes, computed on demand *)
  Alcotest.(check (option string))
    "session rationale lists nodes"
    (Some (string_of_int (Slp.reachable_size (Doc_db.store (Incr.database session)) id)))
    (List.assoc_opt "nodes" (fst (Plan.rationale sp)));
  check_choice "force overrides ratio" `Compressed
    (Plan.make ~force:`Compressed ct (Plan.Slp_node (store, small)));
  Alcotest.check_raises "force must fit the shape"
    (Invalid_argument "Plan.make: forced engine does not fit the input shape") (fun () ->
      ignore (Plan.make ~force:`Incr ct (Plan.Doc "ab")))

let test_plan_relations_match_engines () =
  let ct = Compiled.of_formula xyz in
  let docs = [| ("d1", "ababbab"); ("d2", "abab"); ("d3", "bbbb") |] in
  let expected = Array.map (fun (_, d) -> Compiled.eval ct d) docs in
  let check_results name results =
    Array.iteri
      (fun i (_, r) ->
        match r with
        | Ok r -> Alcotest.(check bool) name true (Span_relation.equal r expected.(i))
        | Error e -> Alcotest.failf "%s: slot %d failed: %s" name i (Printexc.to_string e))
      results
  in
  check_results "plain batch" (Plan.relations ~jobs:2 (Plan.make ct (Plan.Docs docs)));
  let db = Doc_db.create () in
  Array.iter (fun (n, d) -> ignore (Doc_db.add_string db n d)) docs;
  check_results "compressed batch"
    (Plan.relations ~jobs:2 (Plan.make ~force:`Compressed ct (Plan.Db db)));
  check_results "decompress batch"
    (Plan.relations ~jobs:2 (Plan.make ~force:`Decompress ct (Plan.Db db)));
  (* streamed cursors agree too *)
  Array.iteri
    (fun i (_, slot) ->
      match slot with
      | Ok c ->
          Alcotest.(check bool) "cursor slot" true
            (Span_relation.equal (Cursor.to_relation c) expected.(i))
      | Error e -> Alcotest.failf "cursor slot %d failed: %s" i (Printexc.to_string e))
    (Plan.cursors (Plan.make ~force:`Compressed ct (Plan.Db db)))

let test_plan_partial_failure () =
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a*}[a]*") in
  let limits = Limits.make ~max_tuples:10 () in
  let docs = [| ("small", "aa"); ("big", "aaaaaaaaaa") |] in
  let results = Plan.relations ~limits (Plan.make ct (Plan.Docs docs)) in
  (match results.(0) with
  | _, Ok r -> Alcotest.(check int) "healthy slot" 6 (Span_relation.cardinal r)
  | _, Error e -> Alcotest.failf "healthy slot failed: %s" (Printexc.to_string e));
  match results.(1) with
  | _, Error (Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Tuples; _ })) ->
      ()
  | _, Error e -> Alcotest.failf "unexpected error: %s" (Printexc.to_string e)
  | _, Ok _ -> Alcotest.fail "explosive document should trip the tuple cap"

(* An in-memory packed corpus, one arena per element of [shards], each
   a list of (name, text). *)
let packed_corpus shards =
  let db = Doc_db.create () in
  Corpus.of_arenas
    (Array.map
       (fun docs ->
         let roots = List.map (fun (name, text) -> (name, Doc_db.add_string db name text)) docs in
         Arena.of_string (Arena.pack_bytes (Doc_db.store db) roots))
       shards)

let prop_plan_packed =
  QCheck2.Test.make
    ~name:"packed corpora: relations = drained cursors = Compiled.eval, any job count"
    ~count:60
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      1 -- 3 >>= fun n ->
      list_size (1 -- 6) gen_doc1 >>= fun docs -> return (f, n, docs))
    ~print:(fun (f, n, docs) ->
      Printf.sprintf "%s on %d docs in %d shards" (Regex_formula.to_string f)
        (List.length docs) n)
    (fun (f, n, docs) ->
      let docs = List.mapi (fun i d -> (Printf.sprintf "d%d" i, d)) docs in
      (* round-robin, as Corpus.pack lays documents out *)
      let c =
        packed_corpus
          (Array.init n (fun si -> List.filteri (fun i _ -> i mod n = si) docs))
      in
      let ct = Compiled.of_formula f in
      let expected =
        Array.map
          (fun (name, _, _) -> (name, Compiled.eval ct (List.assoc name docs)))
          (Corpus.docs c)
      in
      let agrees got =
        Array.length got = Array.length expected
        && Array.for_all2
             (fun (name, r) (name', e) ->
               name = name' && match r with Ok r -> Span_relation.equal r e | Error _ -> false)
             got expected
      in
      List.for_all
        (fun force ->
          let p = Plan.make ~force ct (Plan.Packed c) in
          agrees
            (Array.map (fun (name, c) -> (name, Result.map Cursor.to_relation c)) (Plan.cursors p))
          && agrees (Plan.relations ~jobs:1 p)
          && agrees (Plan.relations ~jobs:2 p))
        [ `Compressed; `Decompress ])

let test_plan_packed_shard_failure () =
  (* a fuel limit the small shard's sweep fits and the large shard's
     does not: exactly the large shard's documents fail *)
  let ct = Compiled.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  let rng = Random.State.make [| 7 |] in
  let text n = String.init n (fun _ -> if Random.State.bool rng then 'a' else 'b') in
  let c =
    packed_corpus
      [| [ ("s1", "abab"); ("s2", "ba") ]; [ ("b1", text 2000); ("b2", text 1500) ] |]
  in
  let cost si = Compiled.states ct * Arena.node_count (Corpus.shards c).(si) in
  Alcotest.(check bool) "the large shard sweeps far more" true (cost 1 > 4 * cost 0);
  let limits = Limits.make ~fuel:(2 * cost 0) () in
  let p = Plan.make ~force:`Compressed ct (Plan.Packed c) in
  let check_slots what slots =
    Array.iter
      (fun (name, r) ->
        match (name.[0], r) with
        | 's', Ok rel ->
            Alcotest.(check bool) (what ^ " " ^ name ^ " exact") true
              (Span_relation.equal rel
                 (Compiled.eval ct (if name = "s1" then "abab" else "ba")))
        | 'b', Error (Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Fuel; _ })) ->
            ()
        | _, Ok _ -> Alcotest.failf "%s: %s should have tripped" what name
        | _, Error e -> Alcotest.failf "%s: %s failed: %s" what name (Printexc.to_string e))
      slots
  in
  check_slots "cursors"
    (Array.map (fun (name, c) -> (name, Result.map Cursor.to_relation c)) (Plan.cursors ~limits p));
  check_slots "relations, 1 job" (Plan.relations ~jobs:1 ~limits p);
  check_slots "relations, 2 jobs" (Plan.relations ~jobs:2 ~limits p)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "cursor"
    [
      ( "differential",
        to_alcotest [ prop_drain_compiled; prop_drain_slp; prop_drain_incr ] );
      ("windows", to_alcotest [ prop_take_pull_bound; prop_take_prefix ]);
      ( "consolidate",
        to_alcotest [ prop_consolidate_streamed; prop_consolidate_window ] );
      ( "mechanics",
        [
          Alcotest.test_case "peek/next/drop" `Quick test_peek_next_drop;
          Alcotest.test_case "take shares the stream" `Quick test_take_shares_stream;
          Alcotest.test_case "gauge trips mid-stream" `Quick test_gauge_trips_mid_stream;
          Alcotest.test_case "of_relation roundtrip" `Quick test_of_relation_roundtrip;
        ] );
      ( "planner",
        [
          Alcotest.test_case "choices per shape" `Quick test_plan_choices;
          Alcotest.test_case "relations = engines" `Quick test_plan_relations_match_engines;
          Alcotest.test_case "partial failure" `Quick test_plan_partial_failure;
          QCheck_alcotest.to_alcotest prop_plan_packed;
          Alcotest.test_case "packed sweep trips poison one shard" `Quick
            test_plan_packed_shard_failure;
        ] );
    ]
