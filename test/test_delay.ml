(* The native constant-delay enumeration machines against independent
   oracles:

   - The two SLP machines against two other algorithms and against
     each other, over random formulas, documents and SLP builders, for
     the compiled automaton deterministic and as built (a union with an
     ambiguous formula whose subset construction trips
     Compiled.of_evset's cap): Slp_spanner.cursor's
     run count equals Slp_spanner.cardinal (a separate dynamic program
     over run counts) and its set of tuples equals Compiled.eval on the
     decompressed text; on the same store and automaton, Incr.cursor
     emits exactly Slp_spanner.cursor's run sequence.
   - Set-level differentials: the streamed (deduplicated) relation
     equals Compiled.eval on the decompressed text, over stores grown
     by random builders, by CDE editing, and over packed (mmap-view)
     arenas.
   - Budgets fire mid-stream on the native paths: the tuple cap trips
     between two pulls with the same error and count as the effectful
     path did, and the dedup table's absorption work burns fuel.
   - A deep-chain regression: pulling from a 200k-deep left-comb SLP
     must not overflow the stack (the machine is loop-based; the CPS
     enumerator recursed per level).
   - The word-level primitives under the machine: Bitmatrix.transpose
     and Bitset.first_from / first_common_from against naive scans. *)

open Spanner_core
module Charset = Spanner_fa.Charset
module Limits = Spanner_util.Limits
module Bitset = Spanner_util.Bitset
module Bitmatrix = Spanner_util.Bitmatrix
module Slp = Spanner_slp.Slp
module Builder = Spanner_slp.Builder
module Balance = Spanner_slp.Balance
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Slp_spanner = Spanner_slp.Slp_spanner
module Arena = Spanner_store.Arena
module Incr = Spanner_incr.Incr
module Cursor = Spanner_engine.Cursor

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string

(* ------------------------------------------------------------------ *)
(* Generators (formula shape shared with test_cursor) *)

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
            gen_with_vars pool (depth - 1) >>= fun l ->
            gen_with_vars pool (depth - 1) >>= fun r -> return (Regex_formula.alt l r) );
          ( 1,
            gen_with_vars [] (depth - 1) >>= fun body -> return (Regex_formula.star body) );
        ]
  in
  gen_with_vars [ v "x"; v "y" ] 3 >>= fun f ->
  return
    (Regex_formula.concat
       (Regex_formula.star (Regex_formula.chars Charset.full))
       (Regex_formula.concat f
          (Regex_formula.star (Regex_formula.chars Charset.full))))

let builders =
  [|
    ("of_string", fun store s -> Slp.of_string store s);
    ("lz78", fun store s -> Builder.lz78 store s);
    ("balanced", fun store s -> Builder.balanced_of_string store s);
    ("lz78+rebalance", fun store s -> Balance.rebalance store (Builder.lz78 store s));
  |]

let gen_case =
  QCheck2.Gen.(
    gen_formula >>= fun f ->
    gen_doc1 >>= fun doc ->
    0 -- (Array.length builders - 1) >>= fun b -> return (f, doc, b))

let print_case (f, doc, b) =
  Printf.sprintf "%s on %S (%s)" (Regex_formula.to_string f) doc (fst builders.(b))

let drain_native engine id =
  let cur = Slp_spanner.cursor engine id in
  let rec go acc =
    match Slp_spanner.cursor_next cur with Some t -> go (t :: acc) | None -> List.rev acc
  in
  go []

let same_sequence xs ys =
  List.length xs = List.length ys && List.for_all2 Span_tuple.equal xs ys

(* ------------------------------------------------------------------ *)
(* The two machines against each other and two other algorithms *)

let drain_incr session id =
  let cur = Incr.cursor session id in
  let rec go acc =
    match Incr.cursor_next cur with Some t -> go (t :: acc) | None -> List.rev acc
  in
  go []

(* Ambiguous (x's two alternatives are two runs of one tuple), and its
   subset construction needs 517 states where the automaton as built
   has 58, so [Compiled.of_evset] falls back to the automaton as built;
   a union with it falls back too. *)
let ambiguous = Regex_formula.parse "[ab]*(!x{a}|!x{a})[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab]"

let as_built f =
  let ct = Compiled.of_formula f in
  if Compiled.is_deterministic ct then
    Alcotest.failf "%s: expected the automaton as built" (Regex_formula.to_string f);
  ct

let det_and_nondet f =
  [ Compiled.of_formula f; as_built (Regex_formula.alt f ambiguous) ]

let prop_slp_cursor =
  QCheck2.Test.make
    ~name:"Slp_spanner.cursor runs = cardinal, set = Compiled.eval (det and nondet)"
    ~count:300 gen_case ~print:print_case (fun (f, doc, b) ->
      List.for_all
        (fun ct ->
          let store = Slp.create_store () in
          let id = (snd builders.(b)) store doc in
          let engine = Slp_spanner.of_compiled ct store in
          Slp_spanner.prepare engine id;
          let runs = drain_native engine id in
          List.length runs = Slp_spanner.cardinal engine id
          && Span_relation.equal
               (Span_relation.of_list (Compiled.vars ct) runs)
               (Compiled.eval ct doc))
        (det_and_nondet f))

let prop_incr_cursor_order =
  QCheck2.Test.make
    ~name:"Incr.cursor ≡ Slp_spanner.cursor order-exact (det and nondet)" ~count:300
    gen_case ~print:print_case (fun (f, doc, b) ->
      List.for_all
        (fun ct ->
          let db = Doc_db.create () in
          let id = (snd builders.(b)) (Doc_db.store db) doc in
          Doc_db.add db "d" id;
          let engine = Slp_spanner.of_compiled ct (Doc_db.store db) in
          Slp_spanner.prepare engine id;
          same_sequence (drain_incr (Incr.create ct db) id) (drain_native engine id))
        (det_and_nondet f))

(* ------------------------------------------------------------------ *)
(* Set-level differentials: streamed = Compiled on decompressed text *)

let prop_stream_equals_compiled =
  QCheck2.Test.make ~name:"of_slp stream ≡ Compiled.eval on decompressed text"
    ~count:300 gen_case ~print:print_case (fun (f, doc, b) ->
      let ct = Compiled.of_evset (Evset.of_formula f) in
      let store = Slp.create_store () in
      let id = (snd builders.(b)) store doc in
      let engine = Slp_spanner.of_compiled ct store in
      Slp_spanner.prepare engine id;
      Span_relation.equal
        (Cursor.to_relation (Cursor.of_slp engine id))
        (Compiled.eval ct doc))

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
            expr (depth - 1) >>= fun b ->
            0 -- 30 >>= fun k -> return (Cde.Insert (a, b, k + 1)) );
        ]
  in
  expr 2

let prop_cde_stream =
  QCheck2.Test.make ~name:"of_slp stream on CDE-edited stores ≡ compiled on reference edit"
    ~count:150
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      gen_doc1 >>= fun d1 ->
      gen_doc1 >>= fun d2 ->
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
      | None, _ | _, None -> true
      | Some expected, Some id ->
          let ct = Compiled.of_formula f in
          let engine = Slp_spanner.of_compiled ct (Doc_db.store db) in
          Slp_spanner.prepare engine id;
          Span_relation.equal
            (Cursor.to_relation (Cursor.of_slp engine id))
            (Compiled.eval ct expected))

let prop_packed_stream =
  QCheck2.Test.make ~name:"of_slp stream over packed arena view ≡ heap engine"
    ~count:100
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      gen_doc1 >>= fun d1 ->
      gen_doc1 >>= fun d2 -> return (f, d1, d2))
    ~print:(fun (f, d1, d2) ->
      Printf.sprintf "%s on %S + %S" (Regex_formula.to_string f) d1 d2)
    (fun (f, d1, d2) ->
      let db = Doc_db.create () in
      ignore (Doc_db.add_string db "d1" d1);
      ignore (Doc_db.add_string db "d2" d2);
      let docs = List.map (fun n -> (n, Doc_db.find db n)) (Doc_db.names db) in
      let a = Arena.of_string (Arena.pack_bytes (Doc_db.store db) docs) in
      let fz = Arena.frozen_view a in
      let ct = Compiled.of_formula f in
      let flat = Slp_spanner.of_frozen ct fz in
      List.for_all
        (fun (name, _) ->
          let root = Option.get (Arena.find a name) in
          Slp_spanner.prepare flat root;
          List.length (drain_native flat root) = Slp_spanner.cardinal flat root
          && Span_relation.equal
               (Cursor.to_relation (Cursor.of_slp flat root))
               (Compiled.eval ct (Slp.frozen_to_string fz root)))
        docs)

(* ------------------------------------------------------------------ *)
(* Budgets fire mid-stream on the native paths *)

let slp_fixture body doc =
  let ct = Compiled.of_formula (Regex_formula.parse body) in
  let store = Slp.create_store () in
  let id = Balance.rebalance store (Builder.lz78 store doc) in
  let engine = Slp_spanner.of_compiled ct store in
  Slp_spanner.prepare engine id;
  (engine, id)

let test_tuple_cap_trips_mid_stream () =
  let engine, id = slp_fixture "!x{[ab]*}!y{b}!z{[ab]*}" "ababbab" in
  let g = Limits.start (Limits.make ~max_tuples:2 ()) in
  let c = Cursor.of_slp ~gauge:g engine id in
  check Alcotest.bool "tuple 1 flows" true (Cursor.next c <> None);
  check Alcotest.bool "tuple 2 flows" true (Cursor.next c <> None);
  Alcotest.check_raises "third pull trips"
    (Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Tuples; spent = 3 }))
    (fun () -> ignore (Cursor.next c))

let test_dedup_burns_fuel () =
  (* the automaton as built repeats every tuple: the dedup table absorbs
     the copies, and that work must burn fuel even though no extra tuple
     is ever delivered *)
  let ct = as_built ambiguous in
  let store = Slp.create_store () in
  let id = Slp.of_string store "aaaaaaaaabbbbbbbb" in
  let engine = Slp_spanner.of_compiled ct store in
  Slp_spanner.prepare engine id;
  check Alcotest.bool "the engine deduplicates" true (Slp_spanner.nondeterministic engine);
  let unmetered = Cursor.cardinal (Cursor.of_slp engine id) in
  check Alcotest.int "dedup delivers each match once" 8 unmetered;
  check Alcotest.bool "more runs than a 12-step gauge allows" true
    (Slp_spanner.cardinal engine id > 12);
  (* the exact count deduplicates too, and each run it draws is fuel *)
  check Alcotest.int "tuple_count counts tuples, not runs" 8 (Slp_spanner.tuple_count engine id);
  (match Slp_spanner.tuple_count ~limits:(Limits.make ~fuel:12 ()) engine id with
  | _ -> Alcotest.fail "counting the runs through a 12-step gauge must trip"
  | exception Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Fuel; _ }) -> ());
  let drain ct =
    let engine = Slp_spanner.of_compiled ct store in
    Slp_spanner.prepare engine id;
    Cursor.to_list (Cursor.of_slp ~gauge:(Limits.start (Limits.make ~fuel:12 ())) engine id)
  in
  (* the 8 tuples alone fit in 12 steps: deterministic tables drain *)
  check Alcotest.int "deterministic: 8 pulls in 12 steps" 8
    (List.length (drain (Compiled.of_evset (Evset.determinize (Evset.of_formula ambiguous)))));
  match drain ct with
  | _ -> Alcotest.fail "draining the runs through a 12-step gauge must trip"
  | exception Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Fuel; _ }) -> ()

(* ------------------------------------------------------------------ *)
(* Deep-chain regression: the machine must not recurse per level *)

let test_deep_chain_pull () =
  let depth = 200_000 in
  let doc = String.make depth 'a' in
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a}[a]*") in
  let store = Slp.create_store () in
  (* of_string builds the degenerate left comb: one Pair per char *)
  let id = Slp.of_string store doc in
  let engine = Slp_spanner.of_compiled ct store in
  Slp_spanner.prepare engine id;
  let c = Cursor.take (Cursor.of_slp engine id) 5 in
  let got = Cursor.to_list c in
  check Alcotest.int "five tuples pulled off the deep chain" 5 (List.length got);
  List.iter
    (fun t ->
      match Span_tuple.find t (v "x") with
      | Some s -> check Alcotest.int "x binds one character" 1 (Span.len s)
      | None -> Alcotest.fail "x unbound")
    got

(* ------------------------------------------------------------------ *)
(* Word-level primitives *)

let gen_bitset =
  QCheck2.Gen.(
    1 -- 80 >>= fun n ->
    list_size (0 -- n) (0 -- (n - 1)) >>= fun xs -> return (n, xs))

let prop_first_from =
  QCheck2.Test.make ~name:"Bitset.first_from ≡ naive scan" ~count:500 gen_bitset
    ~print:(fun (n, xs) -> Printf.sprintf "n=%d xs=[%s]" n (String.concat ";" (List.map string_of_int xs)))
    (fun (n, xs) ->
      let s = Bitset.of_list n xs in
      let naive i =
        let rec go j = if j >= n then -1 else if Bitset.mem s j then j else go (j + 1) in
        go (max i 0)
      in
      List.for_all (fun i -> Bitset.first_from s i = naive i) (List.init (n + 2) (fun i -> i - 1)))

let prop_first_common_from =
  QCheck2.Test.make ~name:"Bitset.first_common_from ≡ first_from of the intersection"
    ~count:500
    QCheck2.Gen.(
      gen_bitset >>= fun (n, xs) ->
      list_size (0 -- n) (0 -- (n - 1)) >>= fun ys -> return (n, xs, ys))
    ~print:(fun (n, _, _) -> Printf.sprintf "n=%d" n)
    (fun (n, xs, ys) ->
      let a = Bitset.of_list n xs and b = Bitset.of_list n ys in
      let i = Bitset.inter a b in
      List.for_all
        (fun k -> Bitset.first_common_from a b k = Bitset.first_from i k)
        (List.init (n + 2) (fun k -> k - 1)))

let prop_first_split_from =
  QCheck2.Test.make ~name:"Bitset.first_split_from ≡ first_from of (a∧c)∨(a∧d)∨(b∧d)"
    ~count:500
    QCheck2.Gen.(
      gen_bitset >>= fun (n, xs) ->
      list_size (0 -- n) (0 -- (n - 1)) >>= fun bs ->
      list_size (0 -- n) (0 -- (n - 1)) >>= fun cs ->
      list_size (0 -- n) (0 -- (n - 1)) >>= fun ds -> return (n, xs, bs, cs, ds))
    ~print:(fun (n, _, _, _, _) -> Printf.sprintf "n=%d" n)
    (fun (n, xs, bs, cs, ds) ->
      let a = Bitset.of_list n xs
      and b = Bitset.of_list n bs
      and c = Bitset.of_list n cs
      and d = Bitset.of_list n ds in
      let reference = Bitset.copy (Bitset.inter a c) in
      ignore (Bitset.union_into ~into:reference (Bitset.inter a d));
      ignore (Bitset.union_into ~into:reference (Bitset.inter b d));
      List.for_all
        (fun k -> Bitset.first_split_from a b c d k = Bitset.first_from reference k)
        (List.init (n + 2) (fun k -> k - 1)))

let gen_matrix =
  QCheck2.Gen.(
    1 -- 70 >>= fun n ->
    list_size (0 -- (2 * n)) (pair (0 -- (n - 1)) (0 -- (n - 1))) >>= fun cells ->
    return (n, cells))

let prop_transpose =
  QCheck2.Test.make ~name:"Bitmatrix.transpose: entries swap, involutive" ~count:500
    gen_matrix
    ~print:(fun (n, cells) -> Printf.sprintf "n=%d cells=%d" n (List.length cells))
    (fun (n, cells) ->
      let m = Bitmatrix.create n in
      List.iter (fun (i, j) -> Bitmatrix.set m i j) cells;
      let t = Bitmatrix.transpose m in
      let swapped = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Bitmatrix.get t i j <> Bitmatrix.get m j i then swapped := false
        done
      done;
      !swapped && Bitmatrix.equal (Bitmatrix.transpose t) m)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "delay"
    [
      ( "order",
        [
          QCheck_alcotest.to_alcotest prop_slp_cursor;
          QCheck_alcotest.to_alcotest prop_incr_cursor_order;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_stream_equals_compiled;
          QCheck_alcotest.to_alcotest prop_cde_stream;
          QCheck_alcotest.to_alcotest prop_packed_stream;
        ] );
      ( "budgets",
        [
          tc "tuple cap trips mid-stream" `Quick test_tuple_cap_trips_mid_stream;
          tc "dedup burns fuel" `Quick test_dedup_burns_fuel;
        ] );
      ( "robustness", [ tc "200k-deep chain pull" `Quick test_deep_chain_pull ] );
      ( "primitives",
        [
          QCheck_alcotest.to_alcotest prop_first_from;
          QCheck_alcotest.to_alcotest prop_first_common_from;
          QCheck_alcotest.to_alcotest prop_first_split_from;
          QCheck_alcotest.to_alcotest prop_transpose;
        ] );
    ]
