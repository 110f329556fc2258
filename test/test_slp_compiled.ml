(* Differential tests for the compressed-domain evaluation engine
   (Slp_spanner on Compiled tables):

   - Slp_spanner = Compiled on the decompressed text, over random
     formulas, random documents, and random SLP builders — including
     heavily-shared stores (many documents in one store) and stores
     grown by CDE editing;
   - the Figure 1 exact-sharing property: evaluating D3 after D1
     computes 0 new matrices;
   - Plan.relations over a Db: `Compressed = `Decompress = per-file
     Compiled, deterministic across domain counts, partial-failure
     semantics, and metered decompression on the `Decompress path;
   - a cursor drained on one domain while another prepares more roots
     of the same engine;
   - the deep-SLP regression: preparation and decompression survive a
     10⁶-deep chain SLP (the recursive engine overflowed the stack). *)

open Spanner_core
open Spanner_slp
module Limits = Spanner_util.Limits
module Cursor = Spanner_engine.Cursor
module Plan = Spanner_engine.Plan
module Arena = Spanner_store.Arena
module Incr = Spanner_incr.Incr

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string

(* ------------------------------------------------------------------ *)
(* Generators (formula shape shared with test_compiled) *)

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 25))

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
  return
    (Regex_formula.concat
       (Regex_formula.star (Regex_formula.chars Spanner_fa.Charset.full))
       (Regex_formula.concat f
          (Regex_formula.star (Regex_formula.chars Spanner_fa.Charset.full))))

(* An SLP for a given document, by a random builder: the degenerate
   left comb, LZ78, the balanced builder, and rebalanced LZ78 all
   derive the same text with very different DAG shapes. *)
let builders =
  [|
    ("of_string", fun store s -> Slp.of_string store s);
    ("lz78", fun store s -> Builder.lz78 store s);
    ("balanced", fun store s -> Builder.balanced_of_string store s);
    ("lz78+rebalance", fun store s -> Balance.rebalance store (Builder.lz78 store s));
  |]

let gen_builder = QCheck2.Gen.(0 -- (Array.length builders - 1))

let print_case (f, doc, b) =
  Printf.sprintf "%s on %S (%s)" (Regex_formula.to_string f) doc (fst builders.(b))

(* ------------------------------------------------------------------ *)
(* Slp_spanner vs Compiled on the decompressed text *)

let prop_slp_equals_compiled =
  QCheck2.Test.make
    ~name:"slp engine = compiled on decompressed text (random formulas/docs/builders)"
    ~count:400
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      gen_doc >>= fun doc ->
      gen_builder >>= fun b -> return (f, doc, b))
    ~print:print_case
    (fun (f, doc, b) ->
      let store = Slp.create_store () in
      let id = (snd builders.(b)) store doc in
      let e = Evset.of_formula f in
      let engine = Slp_spanner.create e store in
      let oracle = Compiled.eval (Compiled.of_formula f) doc in
      (* the stream is duplicate-free and the count exact, whether the
         engine runs the deterministic automaton or (when the subset
         construction trips its cap) the one as built *)
      Slp_spanner.prepare engine id;
      let runs = Cursor.to_list (Cursor.of_slp engine id) in
      Span_relation.equal (Span_relation.of_list (Slp_spanner.vars engine) runs) oracle
      && List.length runs = Span_relation.cardinal oracle
      && Slp_spanner.tuple_count engine id = Span_relation.cardinal oracle)

(* Ambiguous, and its subset construction needs 517 states where the
   automaton as built has 58: a union with it compiles as built. *)
let ambiguous = Regex_formula.parse "[ab]*(!x{a}|!x{a})[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab]"

let prop_of_compiled_nondeterministic =
  QCheck2.Test.make
    ~name:"of_compiled (non-deterministic tables): relation still exact" ~count:200
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      gen_doc >>= fun doc ->
      gen_builder >>= fun b -> return (f, doc, b))
    ~print:print_case
    (fun (f, doc, b) ->
      let store = Slp.create_store () in
      let id = (snd builders.(b)) store doc in
      let ct = Compiled.of_formula (Regex_formula.alt f ambiguous) in
      let engine = Slp_spanner.of_compiled ct store in
      Slp_spanner.nondeterministic engine
      && Span_relation.equal (Slp_spanner.to_relation engine id) (Compiled.eval ct doc))

(* Heavily-shared store: many documents in one store and one engine,
   interleaving preparation — matrices of shared nodes must stay
   valid as the store grows. *)
let prop_shared_store =
  QCheck2.Test.make ~name:"one engine over a growing shared store" ~count:100
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      list_size (2 -- 5) gen_doc >>= fun docs -> return (f, docs))
    ~print:(fun (f, docs) ->
      Printf.sprintf "%s on %d docs" (Regex_formula.to_string f) (List.length docs))
    (fun (f, docs) ->
      let store = Slp.create_store () in
      let e = Evset.of_formula f in
      let engine = Slp_spanner.create e store in
      let ct = Compiled.of_formula f in
      List.for_all
        (fun doc ->
          (* nodes are added after the engine last prepared: exercises
             the snapshot/array refresh *)
          let id = Builder.lz78 store doc in
          Span_relation.equal (Slp_spanner.to_relation engine id) (Compiled.eval ct doc))
        docs)

(* CDE-edited stores: evaluate a document produced by random editing,
   against Compiled on the reference-evaluated (string-level) edit. *)
let gen_cde =
  let open QCheck2.Gen in
  let doc = oneofl [ Cde.Doc "d1"; Cde.Doc "d2" ] in
  let rec expr depth =
    if depth = 0 then doc
    else
      frequency
        [
          (2, doc);
          ( 2,
            expr (depth - 1) >>= fun a ->
            expr (depth - 1) >>= fun b -> return (Cde.Concat (a, b)) );
          ( 1,
            expr (depth - 1) >>= fun a ->
            0 -- 30 >>= fun i ->
            0 -- 30 >>= fun j -> return (Cde.Extract (a, min i j + 1, max i j + 1)) );
          ( 1,
            expr (depth - 1) >>= fun a ->
            0 -- 30 >>= fun i ->
            0 -- 3 >>= fun k -> return (Cde.Delete (a, i + 1, i + 1 + k)) );
          ( 1,
            expr (depth - 1) >>= fun a ->
            expr (depth - 1) >>= fun b ->
            0 -- 30 >>= fun k -> return (Cde.Insert (a, b, k + 1)) );
        ]
  in
  expr 2

let prop_cde_edited =
  QCheck2.Test.make ~name:"engine on CDE-edited stores = compiled on reference edit"
    ~count:150
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      gen_doc >>= fun d1 ->
      gen_doc >>= fun d2 ->
      gen_cde >>= fun e -> return (f, d1, d2, e))
    ~print:(fun (f, d1, d2, e) ->
      Format.asprintf "%s, d1=%S d2=%S, %a" (Regex_formula.to_string f) d1 d2 Cde.pp e)
    (fun (f, d1, d2, e) ->
      let db = Doc_db.create () in
      ignore (Doc_db.add_string db "d1" d1);
      ignore (Doc_db.add_string db "d2" d2);
      let lookup = function "d1" -> d1 | "d2" -> d2 | _ -> raise Not_found in
      let expected = try Some (Cde.reference_eval lookup e) with Invalid_argument _ -> None in
      let got = try Some (Cde.eval db e) with Invalid_argument _ -> None in
      match (expected, got) with
      | None, _ | _, None -> true (* out-of-range edit or empty result: nothing to compare *)
      | Some expected, Some id ->
          let ct = Compiled.of_formula f in
          let engine = Slp_spanner.of_compiled ct (Doc_db.store db) in
          Span_relation.equal (Slp_spanner.to_relation engine id) (Compiled.eval ct expected))

(* ------------------------------------------------------------------ *)
(* Every engine on every store against the text, in the three regimes
   of the summary layout: a deterministic automaton of at most 63
   states (one-word rows), a dictionary spanner whose deterministic
   automaton has more (multi-word rows, like E21's), and a union with
   [ambiguous] (the automaton as built, with general pure relations). *)

let dict_words =
  [ "babbbbbaba"; "abaabbabbb"; "aaaabaaaba"; "aababbbbaa"; "aabaaaabba"; "baabbaabab"; "bbaabbbaab"; "ababbaaaba" ]

let dictionary =
  let word w = Regex_formula.parse w in
  let pad = Regex_formula.star (Regex_formula.chars (Spanner_fa.Charset.of_string "ab")) in
  let words = List.fold_left (fun acc w -> Regex_formula.alt acc (word w)) (word (List.hd dict_words)) (List.tl dict_words) in
  Regex_formula.concat pad (Regex_formula.concat (Regex_formula.bind (v "x") words) pad)

let gen_text =
  QCheck2.Gen.(
    let filler = string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 6) in
    filler >>= fun a ->
    oneofl dict_words >>= fun w ->
    filler >>= fun b ->
    oneofl ("" :: dict_words) >>= fun w' ->
    filler >>= fun c -> return (a ^ w ^ b ^ w' ^ c))

let prop_engines_against_text =
  QCheck2.Test.make
    ~name:"every engine on heap, frozen, packed and CDE-edited stores = compiled on the text"
    ~count:120
    QCheck2.Gen.(
      0 -- 2 >>= fun regime ->
      gen_formula >>= fun f ->
      gen_text >>= fun d1 ->
      gen_text >>= fun d2 ->
      gen_cde >>= fun e -> return (regime, f, d1, d2, e))
    ~print:(fun (regime, f, d1, d2, e) ->
      Format.asprintf "regime %d, %s, d1=%S d2=%S, %a" regime (Regex_formula.to_string f) d1 d2
        Cde.pp e)
    (fun (regime, f, d1, d2, e) ->
      let ct =
        Compiled.of_formula
          (match regime with 0 -> f | 1 -> dictionary | _ -> Regex_formula.alt f ambiguous)
      in
      (match regime with
      | 1 -> assert (Compiled.is_deterministic ct && Compiled.states ct > 63)
      | 2 -> assert (not (Compiled.is_deterministic ct))
      | _ -> ());
      let db = Doc_db.create () in
      ignore (Doc_db.add_string db "d1" d1);
      ignore (Doc_db.add_string db "d2" d2);
      let lookup = function "d1" -> d1 | "d2" -> d2 | _ -> raise Not_found in
      (match Cde.reference_eval lookup e with
      | exception Invalid_argument _ -> ()
      | "" -> ()
      | _ -> ignore (Cde.materialize db "edited" e));
      let store = Doc_db.store db in
      let docs = List.map (fun n -> (n, Doc_db.find db n)) (Doc_db.names db) in
      let drain next = List.of_seq (Seq.of_dispenser next) in
      let native engine id =
        Slp_spanner.prepare engine id;
        let cur = Slp_spanner.cursor engine id in
        drain (fun () -> Slp_spanner.cursor_next cur)
      in
      let exact runs text =
        Span_relation.equal (Span_relation.of_list (Compiled.vars ct) runs) (Compiled.eval ct text)
      in
      let heap = Slp_spanner.of_compiled ct store in
      let frozen = Slp_spanner.of_frozen ct (Slp.freeze store) in
      let arena = Arena.of_string (Arena.pack_bytes store docs) in
      let packed = Slp_spanner.of_frozen ct (Arena.frozen_view arena) in
      let session = Incr.create ct db in
      List.for_all
        (fun (name, id) ->
          let text = Slp.to_string store id in
          let runs = native heap id in
          let incr =
            let cur = Incr.cursor session id in
            drain (fun () -> Incr.cursor_next cur)
          in
          exact runs text
          && List.equal Span_tuple.equal runs incr
          && List.equal Span_tuple.equal runs (native frozen id)
          && List.equal Span_tuple.equal runs (native packed (Option.get (Arena.find arena name))))
        docs)

(* ------------------------------------------------------------------ *)
(* Plan.relations over a Db: engines agree, parallel determinism *)

let prop_eval_all_engines_agree =
  QCheck2.Test.make
    ~name:"Plan.relations over a Db: compressed = decompress = per-file compiled, any job count"
    ~count:60
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      list_size (1 -- 6) gen_doc >>= fun docs -> return (f, docs))
    ~print:(fun (f, docs) ->
      Printf.sprintf "%s on %d docs" (Regex_formula.to_string f) (List.length docs))
    (fun (f, docs) ->
      let db = Doc_db.create () in
      List.iteri (fun i d -> ignore (Doc_db.add_string db (Printf.sprintf "d%d" i) d)) docs;
      let ct = Compiled.of_formula f in
      let ok jobs force =
        List.for_all2
          (fun doc (_, r) ->
            match r with
            | Ok rel -> Span_relation.equal rel (Compiled.eval ct doc)
            | Error _ -> false)
          docs
          (Array.to_list (Plan.relations ~jobs (Plan.make ~force ct (Plan.Db db))))
      in
      ok 1 `Compressed && ok 4 `Compressed && ok 2 `Decompress)

(* ------------------------------------------------------------------ *)
(* Figure 1: exact node-matrix sharing *)

let figure1_sharing () =
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  let e = Evset.of_formula (Regex_formula.parse "[abc]*!x{bca}[abc]*") in
  let engine = Slp_spanner.create e store in
  Slp_spanner.prepare engine fig.Figure1.a1;
  let after_d1 = Slp_spanner.matrices_computed engine in
  check Alcotest.bool "D1 computed matrices" true (after_d1 > 0);
  (* D3's node (A3) is inside D1's DAG: re-preparing computes nothing *)
  Slp_spanner.prepare engine fig.Figure1.a3;
  check Alcotest.int "D3 after D1: 0 new matrices" after_d1
    (Slp_spanner.matrices_computed engine);
  (* and still evaluates correctly *)
  let doc3 = Slp.to_string store fig.Figure1.a3 in
  check Alcotest.bool "D3 relation exact" true
    (Span_relation.equal
       (Slp_spanner.to_relation engine fig.Figure1.a3)
       (Evset.eval e doc3));
  (* a fresh document sharing only some nodes pays only the rest *)
  let a4 = Slp.pair store fig.Figure1.a3 fig.Figure1.b in
  Slp_spanner.prepare engine a4;
  check Alcotest.int "D3·B: exactly one new node" (after_d1 + 2)
    (Slp_spanner.matrices_computed engine)

let eval_all_shares_sweep () =
  (* the database sweep computes each distinct node once, not once per
     document: matrices ≪ 2 × Σ per-document nodes *)
  let fig = Figure1.build () in
  let db = fig.Figure1.db in
  let ct = Compiled.of_formula (Regex_formula.parse "[abc]*!x{bca}[abc]*") in
  let engine = Slp_spanner.of_compiled ct (Doc_db.store db) in
  let roots = Array.of_list (List.map (Doc_db.find db) (Doc_db.names db)) in
  Array.iter (Slp_spanner.prepare engine) roots;
  Array.iter
    (fun id ->
      let doc = Slp.to_string (Doc_db.store db) id in
      check Alcotest.bool "slot exact" true
        (Span_relation.equal (Cursor.to_relation (Cursor.of_slp engine id)) (Compiled.eval ct doc)))
    roots;
  let distinct = Doc_db.compressed_size db in
  let sum_per_doc =
    List.fold_left
      (fun acc n -> acc + Slp.reachable_size (Doc_db.store db) (Doc_db.find db n))
      0 (Doc_db.names db)
  in
  check Alcotest.int "matrices = 2 × distinct nodes" (2 * distinct)
    (Slp_spanner.matrices_computed engine);
  check Alcotest.bool "sharing: distinct < Σ per-doc nodes" true (distinct < sum_per_doc)

(* ------------------------------------------------------------------ *)
(* Partial failure and metered decompression *)

let eval_all_partial_failure () =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "small" "aaaa");
  ignore (Doc_db.add_string db "huge" (String.make 80 'a'));
  ignore (Doc_db.add_string db "tiny" "aa");
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a*}[a]*") in
  List.iter
    (fun engine ->
      let results =
        Plan.relations ~jobs:2 ~limits:(Limits.make ~max_tuples:50 ())
          (Plan.make ~force:engine ct (Plan.Db db))
      in
      Array.iter
        (fun (name, r) ->
          match (name, r) with
          | "huge", Error (Limits.Spanner_error (Limits.Limit_exceeded _)) -> ()
          | "huge", _ -> Alcotest.fail "huge should trip the tuple cap"
          | _, Ok rel ->
              check Alcotest.bool (name ^ " exact") true
                (Span_relation.equal rel
                   (Compiled.eval ct (Slp.to_string (Doc_db.store db) (Doc_db.find db name))))
          | name, Error e -> Alcotest.failf "%s failed: %s" name (Printexc.to_string e))
        results)
    [ `Compressed; `Decompress ]

let decompression_is_metered () =
  (* an over-budget document trips during decompression and degrades
     to its own slot *)
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "big" (String.concat "" (List.init 500 (fun _ -> "abcab"))));
  ignore (Doc_db.add_string db "ok" "abc");
  let ct = Compiled.of_formula (Regex_formula.parse "!x{abc}[abc]*") in
  let results =
    Array.to_list
      (Plan.relations ~limits:(Limits.make ~fuel:100 ())
         (Plan.make ~force:`Decompress ct (Plan.Db db)))
  in
  (match List.assoc "big" results with
  | Error (Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Fuel; _ })) -> ()
  | Ok _ -> Alcotest.fail "2500-byte decompression must exceed 100 fuel"
  | Error e -> Alcotest.failf "unexpected error: %s" (Printexc.to_string e));
  (* the sweep gauge poisons every slot under `Compressed — but a
     budget generous enough for the shared sweep still isolates
     per-document enumeration failures (eval_all_partial_failure) *)
  match List.assoc "ok" results with
  | Ok rel -> check Alcotest.bool "small doc survives" true (Span_relation.equal rel (Compiled.eval ct "abc"))
  | Error e -> Alcotest.failf "ok failed: %s" (Printexc.to_string e)

let frozen_snapshot () =
  let store = Slp.create_store () in
  let id = Slp.of_string store "hello world" in
  let fz = Slp.freeze store in
  let size = Slp.frozen_size fz in
  check Alcotest.int "snapshot covers the store" (Slp.store_size store) size;
  check Alcotest.string "frozen_to_string" "hello world" (Slp.frozen_to_string fz id);
  check Alcotest.int "frozen_len" 11 (Slp.frozen_len fz id);
  (* later nodes are invisible to the old snapshot *)
  let id2 = Slp.of_string store "xyz" in
  check Alcotest.int "snapshot is immutable" size (Slp.frozen_size fz);
  let fz2 = Slp.freeze store in
  check Alcotest.string "new snapshot sees them" "xyz" (Slp.frozen_to_string fz2 id2);
  (* metered decompression trips its gauge *)
  let g = Limits.start (Limits.make ~fuel:5 ()) in
  match Slp.frozen_to_string ~gauge:g fz id with
  | _ -> Alcotest.fail "11 bytes must exceed 5 fuel"
  | exception Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Fuel; _ }) -> ()

(* A filled block never moves: a cursor drains on one domain while
   another prepares further roots of the same engine, growing its slab
   by several chunks (serve's workers share engines this way). *)
let drain_while_preparing () =
  let ct = Compiled.of_formula (Regex_formula.parse "[abc]*!x{abca}[abc]*") in
  let db = Doc_db.create () in
  let rng = Random.State.make [| 7 |] in
  let texts = Array.init 8 (fun _ -> String.init 3000 (fun _ -> "abc".[Random.State.int rng 3])) in
  let roots = Array.mapi (fun i t -> Doc_db.add_string db (string_of_int i) t) texts in
  let engine = Slp_spanner.of_compiled ct (Doc_db.store db) in
  Slp_spanner.prepare engine roots.(0);
  let drain () =
    let cur = Slp_spanner.cursor engine roots.(0) in
    List.of_seq (Seq.of_dispenser (fun () -> Slp_spanner.cursor_next cur))
  in
  let expected = drain () in
  let before = Slp_spanner.matrices_computed engine in
  let finished = Atomic.make false in
  let preparer =
    Domain.spawn (fun () ->
        Array.iteri (fun i r -> if i > 0 then Slp_spanner.prepare engine r) roots;
        Atomic.set finished true)
  in
  let drains = ref 0 and wrong = ref 0 in
  let rec loop () =
    if not (List.equal Span_tuple.equal (drain ()) expected) then incr wrong;
    incr drains;
    if not (Atomic.get finished) then loop ()
  in
  loop ();
  Domain.join preparer;
  check Alcotest.int (Printf.sprintf "every drain of %d equal" !drains) 0 !wrong;
  check Alcotest.bool "the other roots filled hundreds of blocks" true
    (Slp_spanner.matrices_computed engine - before > 2 * 512);
  Array.iteri
    (fun i r ->
      check Alcotest.bool
        (Printf.sprintf "root %d = compiled on its text" i)
        true
        (Span_relation.equal (Slp_spanner.to_relation engine r) (Compiled.eval ct texts.(i))))
    roots

(* ------------------------------------------------------------------ *)
(* Deep-SLP regression (stack safety) *)

let deep_chain depth store =
  (* right chain: a·(a·(a·…)) — every node distinct, depth [depth] *)
  let leaf = Slp.leaf store 'a' in
  let acc = ref leaf in
  for _ = 1 to depth do
    acc := Slp.pair store leaf !acc
  done;
  !acc

let deep_slp_regression () =
  let depth = 1_000_000 in
  let store = Slp.create_store () in
  let right = deep_chain depth store in
  check Alcotest.int "right-chain length" (depth + 1) (Slp.len store right);
  (* decompression, extraction, reachability: all iterative now *)
  check Alcotest.int "to_string survives" (depth + 1)
    (String.length (Slp.to_string store right));
  check Alcotest.string "extract_string survives" "aaa"
    (Slp.extract_string store right (depth - 1) (depth + 2));
  check Alcotest.int "iter_reachable survives" (depth + 1) (Slp.reachable_size store right);
  (* the matrix sweep is an iterative bottom-up pass *)
  let e = Evset.of_formula (Regex_formula.parse "a*!x{aa}a*") in
  let engine = Slp_spanner.create e store in
  Slp_spanner.prepare engine right;
  check Alcotest.int "matrices over the chain" (2 * (depth + 1))
    (Slp_spanner.matrices_computed engine);
  (* left comb via of_string: the other degenerate direction *)
  let left = Slp.of_string store (String.make 100_000 'b') in
  check Alcotest.int "left-comb to_string survives" 100_000
    (String.length (Slp.to_string store left))

let () =
  Alcotest.run "slp_compiled"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_slp_equals_compiled;
            prop_of_compiled_nondeterministic;
            prop_shared_store;
            prop_cde_edited;
            prop_engines_against_text;
            prop_eval_all_engines_agree;
          ] );
      ( "sharing",
        [
          tc "figure 1: D3 after D1 = 0 new matrices" `Quick figure1_sharing;
          tc "eval_all sweeps each distinct node once" `Quick eval_all_shares_sweep;
        ] );
      ( "governance",
        [
          tc "partial failure, both engines" `Quick eval_all_partial_failure;
          tc "decompression is metered" `Quick decompression_is_metered;
          tc "frozen snapshots" `Quick frozen_snapshot;
        ] );
      ("domains", [ tc "drain while another domain prepares" `Quick drain_while_preparing ]);
      ("deep", [ tc "10^6-deep SLP" `Quick deep_slp_regression ]);
    ]
