(* Differential tests for the compiled evaluation engine:

   - Compiled = Evset.eval (the regular-spanner oracle) on random
     (spanner, document) pairs — same relation, duplicate-free, same
     cardinality; both for raw and determinised automata.
   - of_evset's subset construction: the compiled automaton is
     deterministic with at most as many states as the automaton as
     built, or (for unions with a blow-up) exactly that automaton.
   - The enumeration order: compiling an automaton and compiling its
     determinisation give the same tuple list, the same stats and the
     same cardinal, whether or not the former trips its cap.
   - Batch evaluation is deterministic: Plan.relations over plain
     documents with 1 domain equals 4 domains, element by element.
   - The Charset byte-class helper and the domain pool that the engine
     is built on. *)

open Spanner_core
module Charset = Spanner_fa.Charset
module Pool = Spanner_util.Pool
module Plan = Spanner_engine.Plan

let v = Variable.of_string

(* ------------------------------------------------------------------ *)
(* Generators (same shapes as test_props) *)

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 25))

let gen_formula =
  let open QCheck2.Gen in
  let gen_plain =
    oneofl
      [
        Regex_formula.char 'a';
        Regex_formula.char 'b';
        Regex_formula.char 'c';
        Regex_formula.chars (Charset.of_string "ab");
        Regex_formula.chars Charset.full;
        Regex_formula.star (Regex_formula.char 'a');
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
  gen_with_vars [ v "x"; v "y"; v "z" ] 3 >>= fun f ->
  return
    (Regex_formula.concat
       (Regex_formula.star (Regex_formula.chars Charset.full))
       (Regex_formula.concat f
          (Regex_formula.star (Regex_formula.chars Charset.full))))

let gen_pair = QCheck2.Gen.(gen_formula >>= fun f -> gen_doc >>= fun doc -> return (f, doc))

let print_pair (f, doc) = Printf.sprintf "%s on %S" (Regex_formula.to_string f) doc

(* ------------------------------------------------------------------ *)
(* Compiled vs reference equivalence *)

(* One check of compiled-vs-reference on a single automaton: equal
   relations, equal O(1) cardinal, and duplicate-free enumeration. *)
let agrees e doc =
  let reference = Evset.eval e doc in
  let ct = Compiled.of_evset e in
  let p = Compiled.prepare ct doc in
  let enumerated = ref 0 in
  let r = ref (Span_relation.empty (Compiled.vars ct)) in
  let cur = Compiled.cursor p in
  Seq.iter
    (fun t ->
      incr enumerated;
      r := Span_relation.add !r t)
    (Seq.of_dispenser (fun () -> Compiled.cursor_next cur));
  Span_relation.equal !r reference
  && Compiled.cardinal p = Span_relation.cardinal reference
  && !enumerated = Span_relation.cardinal reference

let prop_compiled_equals_reference =
  QCheck2.Test.make ~name:"compiled = reference enumeration (random formulas/documents)"
    ~count:700 gen_pair ~print:print_pair
    (fun (f, doc) -> agrees (Evset.of_formula f) doc)

let prop_compiled_equals_reference_det =
  QCheck2.Test.make ~name:"compiled = reference on determinised automata" ~count:400 gen_pair
    ~print:print_pair
    (fun (f, doc) -> agrees (Evset.determinize (Evset.of_formula f)) doc)

(* Ambiguous, and its subset construction needs 517 states where the
   automaton as built has 58: a union with it compiles as built. *)
let ambiguous = Regex_formula.parse "[ab]*(!x{a}|!x{a})[ab]*a[ab][ab][ab][ab][ab][ab][ab][ab]"

let prop_deterministic_or_as_built =
  QCheck2.Test.make
    ~name:"of_evset: deterministic, or the automaton as built; = reference" ~count:400
    QCheck2.Gen.(pair bool gen_pair)
    ~print:(fun (blowup, p) -> print_pair p ^ if blowup then " (∪ ambiguous)" else "")
    (fun (blowup, (f, doc)) ->
      let e = Evset.of_formula (if blowup then Regex_formula.alt f ambiguous else f) in
      let ct = Compiled.of_evset e in
      (if Compiled.is_deterministic ct then (not blowup) && Compiled.states ct <= Evset.size e
       else Compiled.states ct = Evset.size e)
      && agrees e doc)

(* The tuple list, stats and cardinal of [ct] on [doc]. *)
let stream ct doc =
  let p = Compiled.prepare ct doc in
  let cur = Compiled.cursor p in
  (List.of_seq (Seq.of_dispenser (fun () -> Compiled.cursor_next cur)), Compiled.stats p,
   Compiled.cardinal p)

let prop_same_order =
  QCheck2.Test.make
    ~name:"of_evset e and of_evset (determinize e): same tuple list, stats and cardinal"
    ~count:300
    QCheck2.Gen.(pair bool gen_pair)
    ~print:(fun (blowup, p) -> print_pair p ^ if blowup then " (∪ ambiguous)" else "")
    (fun (blowup, (f, doc)) ->
      let e = Evset.of_formula (if blowup then Regex_formula.alt f ambiguous else f) in
      let tuples, stats, cardinal = stream (Compiled.of_evset e) doc in
      let tuples', stats', cardinal' = stream (Compiled.of_evset (Evset.determinize e)) doc in
      List.equal Span_tuple.equal tuples tuples' && stats = stats' && cardinal = cardinal')

(* ------------------------------------------------------------------ *)
(* Parallel batch determinism *)

let prop_eval_all_deterministic =
  QCheck2.Test.make ~name:"eval_all: 1 domain = 4 domains, element by element" ~count:60
    QCheck2.Gen.(
      gen_formula >>= fun f ->
      list_size (1 -- 8) gen_doc >>= fun docs -> return (f, docs))
    ~print:(fun (f, docs) ->
      Printf.sprintf "%s on %d docs" (Regex_formula.to_string f) (List.length docs))
    (fun (f, docs) ->
      let plan =
        Plan.make (Compiled.of_formula f)
          (Plan.Docs (Array.of_list (List.mapi (fun i d -> (string_of_int i, d)) docs)))
      in
      let relations jobs =
        Array.map (fun (_, r) -> Result.get_ok r) (Plan.relations ~jobs plan)
      in
      let seq = relations 1 and par = relations 4 in
      Array.length seq = Array.length par
      && Array.for_all2 Span_relation.equal seq par)

(* ------------------------------------------------------------------ *)
(* Charset helpers *)

let gen_charset =
  QCheck2.Gen.(
    list_size (0 -- 3)
      (oneofl
         [
           Charset.of_string "ab";
           Charset.of_string "abc";
           Charset.range 'a' 'z';
           Charset.range '0' '9';
           Charset.singleton 'x';
           Charset.full;
           Charset.empty;
           Charset.complement (Charset.of_string "b");
         ])
    >>= fun sets -> return (List.fold_left Charset.union Charset.empty sets))

let prop_byte_classes =
  QCheck2.Test.make ~name:"charset: byte classes never split a charset" ~count:100
    QCheck2.Gen.(list_size (0 -- 5) gen_charset)
    (fun sets ->
      let class_of, count = Charset.byte_classes sets in
      count >= 1
      && Array.for_all (fun c -> c >= 0 && c < count) class_of
      (* same class => same membership in every charset *)
      && List.for_all
           (fun code ->
             List.for_all
               (fun code' ->
                 class_of.(code) <> class_of.(code')
                 || List.for_all
                      (fun cs ->
                        Charset.mem cs (Char.chr code) = Charset.mem cs (Char.chr code'))
                      sets)
               (List.init 256 Fun.id))
           (List.init 256 Fun.id))

(* ------------------------------------------------------------------ *)
(* Domain pool *)

let prop_pool_map =
  QCheck2.Test.make ~name:"pool: map = Array.map for any job count" ~count:100
    QCheck2.Gen.(
      pair (array_size (0 -- 40) (int_bound 1000)) (int_range 1 6))
    (fun (a, jobs) ->
      Pool.map ~jobs (fun x -> (x * x) + 1) a = Array.map (fun x -> (x * x) + 1) a
      && Pool.mapi ~jobs (fun i x -> i + x) a = Array.mapi (fun i x -> i + x) a)

let test_pool_exception () =
  let raised =
    try
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 17 then failwith "boom" else x)
           (Array.init 100 Fun.id));
      false
    with Failure msg -> msg = "boom"
  in
  Alcotest.(check bool) "exception propagates" true raised

let test_batch_example () =
  (* Example 1.1's spanner over a few concrete documents. *)
  let ct = Compiled.of_formula (Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}") in
  let docs = [| ("d1", "ababbab"); ("d2", "abab"); ("d3", ""); ("d4", "bbbb") |] in
  let rs = Plan.relations ~jobs:2 (Plan.make ct (Plan.Docs docs)) in
  Alcotest.(check (list int))
    "per-document cardinalities" [ 4; 2; 0; 4 ]
    (Array.to_list (Array.map (fun (_, r) -> Span_relation.cardinal (Result.get_ok r)) rs))

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "compiled"
    [
      ( "equivalence",
        to_alcotest
          [
            prop_compiled_equals_reference;
            prop_compiled_equals_reference_det;
            prop_deterministic_or_as_built;
            prop_same_order;
          ] );
      ("batch", to_alcotest [ prop_eval_all_deterministic ]);
      ( "tables",
        to_alcotest [ prop_byte_classes; prop_pool_map ]
        @ [
            Alcotest.test_case "pool exception" `Quick test_pool_exception;
            Alcotest.test_case "batch example" `Quick test_batch_example;
          ] );
    ]
