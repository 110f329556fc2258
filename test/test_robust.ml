(* Robustness: resource budgets, the typed error taxonomy, hardened
   deserialisation, and partial-failure batch semantics.

   - Limits unit behaviour: fuel, deadline, state cap, tuple cap each
     trip with the right [which]; generous budgets are invisible.
   - Serialize: the 10-byte-varint regression, hostile size fields
     (a tiny file claiming 2^40 nodes fails fast), duplicate names,
     non-canonical varints; qcheck truncation/bit-flips of a valid
     image always give a typed error or a successful parse.
   - Pool.mapi_result: per-slot partial failure.
   - Batch semantics: one over-budget document degrades to its Error
     slot, healthy documents still complete (Compiled, Doc_db, Incr).
   - Parsers: bounded-repetition expansion attacks and repetition-count
     overflow are rejected as parse errors in all three parsers. *)

open Spanner_core
module Limits = Spanner_util.Limits
module Pool = Spanner_util.Pool
module Doc_db = Spanner_slp.Doc_db
module Serialize = Spanner_slp.Serialize
module Incr = Spanner_incr.Incr
module Plan = Spanner_engine.Plan
module X = Spanner_util.Xoshiro

let check = Alcotest.check
let tc = Alcotest.test_case

let trips which f =
  match f () with
  | _ -> Alcotest.failf "expected %s limit to trip" (Limits.which_to_string which)
  | exception Limits.Spanner_error (Limits.Limit_exceeded { which = w; _ }) ->
      check Alcotest.string "which" (Limits.which_to_string which) (Limits.which_to_string w)

let corrupt f =
  match f () with
  | _ -> Alcotest.fail "expected Corrupt_input"
  | exception Limits.Spanner_error (Limits.Corrupt_input _) -> ()

let parse_fails f =
  match f () with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Spanner_fa.Regex.Parse_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Limits unit behaviour *)

let limits_basics () =
  check Alcotest.bool "none is none" true (Limits.is_none Limits.none);
  check Alcotest.bool "make () is none" true (Limits.is_none (Limits.make ()));
  check Alcotest.bool "make ~fuel is bounded" false (Limits.is_none (Limits.make ~fuel:10 ()));
  (* fuel trips exactly past the cap, not within an amortised interval *)
  let g = Limits.start (Limits.make ~fuel:100 ()) in
  for _ = 1 to 100 do
    Limits.check g
  done;
  trips Limits.Fuel (fun () -> Limits.check g);
  (* a zero-millisecond deadline trips on the first probe *)
  let g = Limits.start (Limits.make ~time_ms:0 ()) in
  trips Limits.Deadline (fun () ->
      for _ = 1 to 100_000 do
        Limits.check g
      done);
  (* charge counts in bulk *)
  let g = Limits.start (Limits.make ~fuel:10_000 ()) in
  trips Limits.Fuel (fun () ->
      for _ = 1 to 100 do
        Limits.charge g 5_000
      done);
  (* state/tuple caps are direct *)
  let g = Limits.start (Limits.make ~max_states:8 ()) in
  Limits.check_states g 8;
  trips Limits.States (fun () -> Limits.check_states g 9);
  let g = Limits.start (Limits.make ~max_tuples:3 ()) in
  Limits.check_tuples g 3;
  trips Limits.Tuples (fun () -> Limits.check_tuples g 4)

let error_rendering () =
  let e = Limits.Parse { what = "datalog"; pos = 7; msg = "expected ':-'" } in
  check Alcotest.string "parse" "datalog parse error at offset 7: expected ':-'"
    (Limits.to_string e);
  check Alcotest.int "parse exit" 2 (Limits.exit_code e);
  let e = Limits.Limit_exceeded { which = Limits.Fuel; spent = 42 } in
  check Alcotest.string "limit" "fuel limit exceeded (spent 42 steps)" (Limits.to_string e);
  check Alcotest.int "limit exit" 3 (Limits.exit_code e);
  let e = Limits.Corrupt_input { what = "SLPDB"; msg = "bad magic" } in
  check Alcotest.string "corrupt" "corrupt SLPDB input: bad magic" (Limits.to_string e);
  check Alcotest.int "corrupt exit" 2 (Limits.exit_code e);
  let e = Limits.Eval_failure { what = "batch"; msg = "boom" } in
  check Alcotest.int "eval exit" 1 (Limits.exit_code e)

(* ------------------------------------------------------------------ *)
(* Budget enforcement at the evaluation hot spots *)

(* many variables over a common factor: the marker-set closure and the
   subset construction both blow up on this family *)
let pathological_formula k =
  let body = Regex_formula.star (Regex_formula.char 'a') in
  let rec build i =
    if i > k then body
    else
      Regex_formula.concat
        (Regex_formula.bind (Variable.of_string (Printf.sprintf "x%d" i)) body)
        (build (i + 1))
  in
  build 1

let state_cap_trips () =
  let f = pathological_formula 6 in
  trips Limits.States (fun () ->
      Evset.determinize ~limits:(Limits.make ~max_states:4 ()) (Evset.of_formula f));
  trips Limits.States (fun () -> Compiled.of_formula ~limits:(Limits.make ~max_states:4 ()) f)

(* Compile-time determinisation draws on the request's fuel: running
   dry there is the request's error, and only the subset construction's
   own cap (the automaton's state count) falls back to the automaton as
   built.  58 states and 3 byte classes charge 174 steps before the
   subset construction starts. *)
let compile_fuel_is_an_error () =
  let e =
    Evset.of_formula
      (Regex_formula.parse "[ab]*(!x{a}|!x{a})[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab]")
  in
  trips Limits.Fuel (fun () -> Compiled.of_evset ~limits:(Limits.make ~fuel:200 ()) e);
  let ct = Compiled.of_evset ~limits:(Limits.make ~fuel:1_000_000 ~max_states:58 ()) e in
  check Alcotest.bool "the cap falls back" false (Compiled.is_deterministic ct);
  check Alcotest.int "to the automaton as built" (Evset.size e) (Compiled.states ct)

let fuel_trips_on_long_document () =
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{a[ab]*b}.*") in
  let doc = String.concat "" (List.init 2_000 (fun _ -> "ab")) in
  trips Limits.Fuel (fun () -> Compiled.eval ~limits:(Limits.make ~fuel:1_000 ()) ct doc)

let tuple_cap_trips () =
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a*}[a]*") in
  let doc = String.make 60 'a' in
  trips Limits.Tuples (fun () -> Compiled.eval ~limits:(Limits.make ~max_tuples:10 ()) ct doc)

let datalog_fuel_trips () =
  let p =
    Spanner_datalog.Datalog.parse
      {| eq(x, y) :- <([ab]+;)*!x{[ab]+};!y{[ab]+};([ab]+;)*>(x, y), streq(x, y).
         chain(x, y) :- eq(x, y).
         chain(x, z) :- chain(x, y), eq(y, z). |}
  in
  let doc = String.concat ";" (List.init 30 (fun _ -> "ab")) ^ ";" in
  trips Limits.Fuel (fun () ->
      Spanner_datalog.Datalog.run ~limits:(Limits.make ~fuel:2_000 ()) p doc)

let incr_fuel_trips () =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "doc" (String.concat "" (List.init 500 (fun _ -> "ab"))));
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{ab}.*") in
  let s = Incr.create ct db in
  trips Limits.Fuel (fun () -> Incr.eval_doc ~limits:(Limits.make ~fuel:50 ()) s "doc")

(* a generous budget must be semantically invisible *)
let generous = Limits.make ~fuel:100_000_000 ~time_ms:600_000 ~max_states:100_000 ~max_tuples:10_000_000 ()

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 25))

let gen_formula_src =
  QCheck2.Gen.oneofl
    [
      "!x{[ab]*}!y{b}!z{[ab]*}";
      ".*!x{a[ab]*b}.*";
      "!x{a*}!y{b*}c*";
      "(!x{ab*}|!x{ba*})c*";
      "[abc]*!x{[ab]+}[abc]*";
    ]

let prop_generous_budget_invisible =
  QCheck2.Test.make ~name:"evaluation under a generous budget = evaluation without" ~count:100
    QCheck2.Gen.(
      gen_formula_src >>= fun src ->
      gen_doc >>= fun doc -> return (src, doc))
    ~print:(fun (src, doc) -> Printf.sprintf "%s on %S" src doc)
    (fun (src, doc) ->
      let f = Regex_formula.parse src in
      let free = Compiled.eval (Compiled.of_formula f) doc in
      let governed =
        Compiled.eval ~limits:generous (Compiled.of_formula ~limits:generous f) doc
      in
      Span_relation.equal free governed)

(* ------------------------------------------------------------------ *)
(* Pool partial failure *)

let pool_mapi_result () =
  let a = [| 1; 2; 3; 4; 5; 6; 7; 8 |] in
  let r =
    Pool.mapi_result ~jobs:4 (fun _ x -> if x mod 3 = 0 then failwith "boom" else x * 10) a
  in
  Array.iteri
    (fun i x ->
      match (r.(i), x mod 3 = 0) with
      | Ok y, false -> check Alcotest.int "ok slot" (x * 10) y
      | Error (Failure m), true -> check Alcotest.string "error slot" "boom" m
      | _ -> Alcotest.failf "slot %d has the wrong shape" i)
    a

(* ------------------------------------------------------------------ *)
(* Batch partial-failure semantics *)

let batch_partial_failure () =
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a*}[a]*") in
  let docs = [| ("d0", "aaaa"); ("d1", String.make 80 'a'); ("d2", "aa") |] in
  let limits = Limits.make ~max_tuples:50 () in
  let r = Array.map snd (Plan.relations ~jobs:2 ~limits (Plan.make ct (Plan.Docs docs))) in
  (match r.(0) with Ok _ -> () | Error _ -> Alcotest.fail "doc 0 should succeed");
  (match r.(1) with
  | Error (Limits.Spanner_error (Limits.Limit_exceeded { which = Limits.Tuples; _ })) -> ()
  | _ -> Alcotest.fail "doc 1 should trip the tuple cap");
  (match r.(2) with Ok _ -> () | Error _ -> Alcotest.fail "doc 2 should succeed");
  (* healthy slots agree with unlimited evaluation *)
  (match r.(0) with
  | Ok rel ->
      check Alcotest.bool "doc 0 exact" true (Span_relation.equal rel (Compiled.eval ct "aaaa"))
  | Error _ -> ())

let doc_db_partial_failure () =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "small" "aaaa");
  ignore (Doc_db.add_string db "huge" (String.make 80 'a'));
  ignore (Doc_db.add_string db "tiny" "aa");
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a*}[a]*") in
  let results =
    Plan.relations ~jobs:2 ~limits:(Limits.make ~max_tuples:50 ())
      (Plan.make ~force:`Compressed ct (Plan.Db db))
  in
  check
    Alcotest.(list string)
    "order" [ "small"; "huge"; "tiny" ] (Array.to_list (Array.map fst results));
  Array.iter
    (fun (name, r) ->
      match (name, r) with
      | "huge", Error (Limits.Spanner_error (Limits.Limit_exceeded _)) -> ()
      | "huge", _ -> Alcotest.fail "huge should trip"
      | _, Ok _ -> ()
      | name, Error e -> Alcotest.failf "%s failed: %s" name (Printexc.to_string e))
    results

let incr_partial_failure () =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "small" "aaaa");
  ignore (Doc_db.add_string db "huge" (String.make 80 'a'));
  (* compiled deterministic: the SLP run enumeration then emits each
     tuple along exactly one run, so the tuple cap counts distinct
     tuples *)
  let ct = Compiled.of_formula (Regex_formula.parse "[a]*!x{a*}[a]*") in
  check Alcotest.bool "deterministic" true (Compiled.is_deterministic ct);
  let s = Incr.create ct db in
  let results =
    List.concat_map
      (fun name ->
        Array.to_list
          (Plan.relations ~limits:(Limits.make ~max_tuples:50 ())
             (Plan.make ct (Plan.Session (s, name)))))
      (Doc_db.names db)
  in
  List.iter
    (fun (name, r) ->
      match (name, r) with
      | "huge", Error (Limits.Spanner_error (Limits.Limit_exceeded _)) -> ()
      | "huge", _ -> Alcotest.fail "huge should trip"
      | "small", Ok rel ->
          check Alcotest.bool "small exact" true (Span_relation.equal rel (Compiled.eval ct "aaaa"))
      | name, _ -> Alcotest.failf "unexpected slot for %s" name)
    results

(* ------------------------------------------------------------------ *)
(* Serialize hardening *)

let magic = "SLPDB1\n"

let varint_regression () =
  (* ten continuation bytes: before the shift cap this wrapped the
     shift past the word size and produced garbage instead of failing *)
  corrupt (fun () -> Serialize.read_string (magic ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"));
  (* a varint that overflows the 62 value bits *)
  corrupt (fun () -> Serialize.read_string (magic ^ "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"));
  (* non-canonical: zero-padded continuation *)
  corrupt (fun () -> Serialize.read_string (magic ^ "\x80\x00"))

let hostile_sizes () =
  (* a tiny file claiming 2^40 nodes must fail fast, before Array.make *)
  corrupt (fun () -> Serialize.read_string (magic ^ "\x80\x80\x80\x80\x80\x80\x80\x80\x01"));
  (* document name longer than the remaining bytes *)
  corrupt (fun () -> Serialize.read_string (magic ^ "\x01\x00\x61\x01\x7f\x6e"));
  (* truncated file *)
  corrupt (fun () -> Serialize.read_string (magic ^ "\x02\x00\x61"));
  (* a doubling chain of 62 pairs: node i derives 2^i bytes, and 2^62
     passes max_int — a typed error, not a wrapped length *)
  let chain =
    String.concat "" (List.init 62 (fun i -> Printf.sprintf "\x01%c%c" (Char.chr i) (Char.chr i)))
  in
  corrupt (fun () -> Serialize.read_string (magic ^ "\x3f\x00a" ^ chain ^ "\x01\x01d\x3e"));
  (* bad magic *)
  corrupt (fun () -> Serialize.read_string "NOTSLP!\x00");
  corrupt (fun () -> Serialize.read_string "")

let duplicate_names () =
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "a" "xyxy");
  let image = Serialize.write_string db in
  (* duplicate the document table entry: bump ndocs from 1 to 2 and
     repeat the 3-byte (len, name, root) entry; the table is the last
     4 bytes of this small image (ndocs=1, len=1, 'a', root) *)
  let nodes_part = String.sub image 0 (String.length image - 4) in
  let doctable = String.sub image (String.length image - 3) 3 in
  let forged = nodes_part ^ "\x02" ^ doctable ^ doctable in
  corrupt (fun () -> Serialize.read_string forged);
  (* sanity: the unforged image still round-trips *)
  let db' = Serialize.read_string image in
  check Alcotest.(list string) "names" [ "a" ] (Doc_db.names db')

let prop_mutated_image_never_crashes =
  QCheck2.Test.make ~name:"truncate/bit-flip a valid SLPDB image: typed error or success"
    ~count:500
    QCheck2.Gen.(
      int_range 0 1_000_000 >>= fun seed ->
      int_range 1 8 >>= fun nmut -> return (seed, nmut))
    ~print:(fun (seed, nmut) -> Printf.sprintf "seed %d, %d mutations" seed nmut)
    (fun (seed, nmut) ->
      let db = Doc_db.create () in
      ignore (Doc_db.add_string db "d1" "abracadabra");
      ignore (Doc_db.add_string db "d2" "abcabcabc");
      let image = ref (Serialize.write_string db) in
      let rng = X.create seed in
      for _ = 1 to nmut do
        let s = !image in
        let n = String.length s in
        if n > 0 then
          image :=
            (match X.int rng 3 with
            | 0 ->
                let b = Bytes.of_string s in
                Bytes.set b (X.int rng n) (Char.chr (X.int rng 256));
                Bytes.to_string b
            | 1 -> String.sub s 0 (X.int rng n)
            | _ ->
                let i = X.int rng (n + 1) in
                String.sub s 0 i ^ String.make 1 (Char.chr (X.int rng 256)) ^ String.sub s i (n - i))
      done;
      match Serialize.read_string !image with
      | _ -> true
      | exception Limits.Spanner_error (Limits.Corrupt_input _) -> true
      | exception _ -> false)

(* ------------------------------------------------------------------ *)
(* Parser repetition attacks *)

let repetition_attacks () =
  (* nested bounded repetition multiplies: must be rejected, not expanded *)
  parse_fails (fun () -> Regex_formula.parse "a{9}{9}{9}{9}{9}{9}{9}{9}");
  parse_fails (fun () -> Regex_formula.parse "a{5000}");
  parse_fails (fun () -> Regex_formula.parse "a{99999999999999999999}");
  parse_fails (fun () -> Spanner_fa.Regex.parse "a{9}{9}{9}{9}{9}{9}{9}{9}");
  parse_fails (fun () -> Spanner_fa.Regex.parse "a{99999999999999999999}");
  parse_fails (fun () -> Spanner_refl.Refl_regex.parse "a{9}{9}{9}{9}{9}{9}{9}{9}");
  parse_fails (fun () -> Spanner_refl.Refl_regex.parse "a{99999999999999999999}");
  (* modest bounded repetitions still work *)
  let f = Regex_formula.parse "!x{a{2,4}}" in
  let r = Compiled.eval (Compiled.of_formula f) "aaa" in
  check Alcotest.int "a{2,4} on aaa" 1 (Span_relation.cardinal r)

let datalog_typed_parse_errors () =
  let typed s =
    match Spanner_datalog.Datalog.parse s with
    | exception Limits.Spanner_error (Limits.Parse { what = "datalog"; _ }) -> true
    | _ -> false
  in
  check Alcotest.bool "missing dot" true (typed "p(x) :- q(x)");
  check Alcotest.bool "bad formula" true (typed "p(x) :- <!x{>(x).");
  check Alcotest.bool "unterminated" true (typed "p(x) :- <!x{a}(x).")

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "robust"
    [
      ( "limits",
        [
          tc "gauge basics" `Quick limits_basics;
          tc "error rendering and exit codes" `Quick error_rendering;
        ] );
      ( "budgets",
        [
          tc "state cap" `Quick state_cap_trips;
          tc "compile fuel is an error, the cap a fallback" `Quick compile_fuel_is_an_error;
          tc "fuel on a long document" `Quick fuel_trips_on_long_document;
          tc "tuple cap" `Quick tuple_cap_trips;
          tc "datalog fixpoint fuel" `Quick datalog_fuel_trips;
          tc "incremental evaluation fuel" `Quick incr_fuel_trips;
        ]
        @ to_alcotest [ prop_generous_budget_invisible ] );
      ("pool", [ tc "mapi_result partial failure" `Quick pool_mapi_result ]);
      ( "batch",
        [
          tc "compiled batch partial failure" `Quick batch_partial_failure;
          tc "doc_db batch partial failure" `Quick doc_db_partial_failure;
          tc "incr batch partial failure" `Quick incr_partial_failure;
        ] );
      ( "serialize",
        [
          tc "varint shift regression" `Quick varint_regression;
          tc "hostile size fields" `Quick hostile_sizes;
          tc "duplicate document names" `Quick duplicate_names;
        ]
        @ to_alcotest [ prop_mutated_image_never_crashes ] );
      ( "parsers",
        [
          tc "repetition attacks rejected" `Quick repetition_attacks;
          tc "datalog typed parse errors" `Quick datalog_typed_parse_errors;
        ] );
    ]
