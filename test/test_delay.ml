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
   - The word-level kernel under the machines: Wordrel's composition
     against Bitmatrix products and unions, and its split and ending
     scans against naive ones, in all three regimes of its layout
     (state maps in one-word rows, state maps in multi-word rows, and
     general rows). *)

open Spanner_core
module Charset = Spanner_fa.Charset
module Limits = Spanner_util.Limits
module Wordrel = Spanner_util.Wordrel
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
(* The composition kernel against its oracle *)

(* Regime 0: state maps with at most 63 states (one-word rows); 1: state
   maps with 64–130 states (multi-word rows); 2: general rows, up to 130
   states (the nondeterministic fallback).  Each case builds two random
   blocks with their Bitmatrix twins, composes them, and compares every
   entry and every split scan. *)
let prop_kernel =
  QCheck2.Test.make ~name:"Wordrel.compose ≡ Bitmatrix.mul/union; word scans ≡ naive" ~count:300
    QCheck2.Gen.(pair (0 -- 2) (0 -- 1_000_000))
    ~print:(fun (regime, seed) -> Printf.sprintf "regime %d, seed %d" regime seed)
    (fun (regime, seed) ->
      let rng = Random.State.make [| seed |] in
      let n =
        match regime with
        | 0 -> 1 + Random.State.int rng 63
        | 1 -> 64 + Random.State.int rng 67
        | _ -> 1 + Random.State.int rng 130
      in
      let functional = regime < 2 in
      let density = Random.State.float rng 0.3 in
      let coin pr = Random.State.float rng 1.0 < pr in
      let slab = Wordrel.create ~states:n ~functional 1 in
      let block () =
        let s = Wordrel.alloc slab in
        let pure = Bitmatrix.create n and mixed = Bitmatrix.create n in
        for p = 0 to n - 1 do
          if functional then begin
            if coin 0.8 then begin
              let q = Random.State.int rng n in
              Wordrel.set_pure slab s p q;
              Bitmatrix.set pure p q
            end
          end
          else
            for q = 0 to n - 1 do
              if coin density then begin
                Wordrel.set_pure slab s p q;
                Bitmatrix.set pure p q
              end
            done;
          for q = 0 to n - 1 do
            if coin density then begin
              Wordrel.set_mixed slab s p q;
              Bitmatrix.set mixed p q
            end
          done
        done;
        Wordrel.seal slab s;
        (s, pure, mixed)
      in
      let l, pl, ml = block () in
      let r, pr, mr = block () in
      (* the product lands in the same slab or, as Incr's do, in another *)
      let dst = if coin 0.5 then slab else Wordrel.create ~states:n ~functional 1 in
      let d = Wordrel.alloc dst in
      Wordrel.compose slab l slab r dst d;
      let pd = Bitmatrix.mul pl pr in
      let md = Bitmatrix.union (Bitmatrix.mul ml (Bitmatrix.union pr mr)) (Bitmatrix.mul pl mr) in
      let ok = ref true in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          if Wordrel.pure_mem dst d p q <> Bitmatrix.get pd p q then ok := false;
          if Wordrel.mixed_mem dst d p q <> Bitmatrix.get md p q then ok := false
        done
      done;
      (* split scans on the operands and on the product (whose
         transposes [compose] derived), from random starting states *)
      let naive_split (pl, ml) (pr, mr) p q from =
        let rec go mid =
          if mid >= n then -1
          else if
            (Bitmatrix.get ml p mid && (Bitmatrix.get pr mid q || Bitmatrix.get mr mid q))
            || (Bitmatrix.get pl p mid && Bitmatrix.get mr mid q)
          then mid
          else go (mid + 1)
        in
        go (max from 0)
      in
      let ends = Array.init n (fun _ -> coin 0.5) in
      let row = Wordrel.row ~states:n (fun q -> ends.(q)) in
      for _ = 1 to 40 do
        let p = Random.State.int rng n and q = Random.State.int rng n in
        let from = Random.State.int rng (n + 2) - 1 in
        if Wordrel.first_split slab l p slab r q from <> naive_split (pl, ml) (pr, mr) p q from then
          ok := false;
        if Wordrel.first_split dst d p dst d q from <> naive_split (pd, md) (pd, md) p q from then
          ok := false;
        let rec naive_end q =
          if q >= n then -1
          else if ends.(q) && (Bitmatrix.get pd p q || Bitmatrix.get md p q) then q
          else naive_end (q + 1)
        in
        if Wordrel.first_in_row dst d p row from <> naive_end (max from 0) then ok := false
      done;
      !ok)

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
      ("primitives", [ QCheck_alcotest.to_alcotest prop_kernel ]);
    ]
