(* Tests for the cost-based algebraic optimizer (lib/engine/optimizer)
   and the algebra concrete syntax (Algebra.parse / Algebra.pp):

   - QCheck differential suite: draining the optimized plan's cursor
     equals the operator-at-a-time Algebra.eval oracle on random
     expressions × random documents, with and without a sample
     document, and with a starved fuse budget that forces the
     materialise fallback at every operator.
   - parser∘pp round-trip as a QCheck fixpoint property.
   - cost-guard units: a starved budget must not fuse, a Select-free
     expression under the default budget must fuse to one automaton,
     and both must still agree with the oracle.
   - hostile inputs: every malformed expression raises the typed
     Parse error, including the depth cap and the disabled file: leaf. *)

open Spanner_core
module Limits = Spanner_util.Limits
module Optimizer = Spanner_engine.Optimizer
module Cursor = Spanner_engine.Cursor
module Sample = Spanner_engine.Sample

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string
let vs = Variable.set_of_list

(* ------------------------------------------------------------------ *)
(* Generators *)

let leaf_pool =
  List.map Algebra.formula
    [
      "!x{a+}b";
      "a!x{b+}";
      "!x{ab}[ab]*";
      "[ab]*!x{a[ab]}";
      "!y{b+}";
      "!x{a*}!y{b*}";
      "!y{ab?}a*";
      "!z{a}[ab]*";
      "(!x{a+}|!y{b+})[ab]*";
      "!x{[ab]}!z{[ab]*}";
    ]

let gen_vars =
  QCheck2.Gen.(
    list_size (0 -- 3) (oneofl [ v "x"; v "y"; v "z" ]) >>= fun xs ->
    return (Variable.set_of_list xs))

let gen_expr =
  let open QCheck2.Gen in
  let leaf = oneofl leaf_pool in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (2, map2 (fun a b -> Algebra.Union (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Algebra.Join (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun vars e -> Algebra.Project (vars, e)) gen_vars (go (depth - 1)));
          (2, map2 (fun vars e -> Algebra.Select (vars, e)) gen_vars (go (depth - 1)));
        ]
  in
  go 3

let gen_doc = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (0 -- 8))
let gen_pair = QCheck2.Gen.pair gen_expr gen_doc
let print_pair (e, doc) = Printf.sprintf "%s on %S" (Algebra.to_string e) doc

(* ------------------------------------------------------------------ *)
(* Differential: optimized cursor drain = Algebra.eval oracle *)

let agree ?fuse_states ?sample e doc =
  let plan = Optimizer.optimize ?fuse_states ?sample e in
  Span_relation.equal (Cursor.to_relation (Optimizer.cursor plan doc)) (Algebra.eval e doc)

let prop_optimized_eq_oracle =
  QCheck2.Test.make ~name:"optimized plan drain = Algebra.eval (no sample)" ~count:250
    gen_pair ~print:print_pair (fun (e, doc) -> agree e doc)

let prop_optimized_eq_oracle_sampled =
  QCheck2.Test.make ~name:"optimized plan drain = Algebra.eval (sampled, joins reordered)"
    ~count:250 gen_pair ~print:print_pair (fun (e, doc) -> agree ~sample:doc e doc)

let prop_starved_guard_eq_oracle =
  QCheck2.Test.make ~name:"materialise fallback (fuse budget 1) = Algebra.eval" ~count:150
    gen_pair ~print:print_pair (fun (e, doc) -> agree ~fuse_states:1 ~sample:doc e doc)

(* Under a tuple cap k, a plan that the fuse budget splits into stream
   operators returns at most k tuples or trips the cap: the operators
   count their output on the request's gauge. *)
let prop_starved_tuple_cap =
  QCheck2.Test.make ~name:"tuple cap holds above the stream operators (fuse budget 1)"
    ~count:250
    QCheck2.Gen.(triple gen_expr gen_doc (0 -- 4))
    ~print:(fun (e, doc, k) -> Printf.sprintf "%s, max_tuples %d" (print_pair (e, doc)) k)
    (fun (e, doc, k) ->
      let limits = Limits.make ~max_tuples:k () in
      let plan = Optimizer.optimize ~limits ~fuse_states:1 e in
      match Cursor.to_relation (Optimizer.cursor ~limits plan doc) with
      | r -> Span_relation.cardinal r <= k
      | exception Limits.Spanner_error (Limits.Limit_exceeded _) -> true)

(* ------------------------------------------------------------------ *)
(* parser ∘ pp round-trip *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse (pp e) prints back to pp e" ~count:300 gen_expr
    ~print:Algebra.to_string (fun e ->
      let printed = Algebra.to_string e in
      Algebra.to_string (Algebra.parse printed) = printed)

let prop_roundtrip_semantics =
  QCheck2.Test.make ~name:"parse (pp e) evaluates like e" ~count:100
    QCheck2.Gen.(pair gen_expr gen_doc)
    ~print:print_pair
    (fun (e, doc) ->
      Span_relation.equal (Algebra.eval (Algebra.parse (Algebra.to_string e)) doc)
        (Algebra.eval e doc))

(* ------------------------------------------------------------------ *)
(* Cost guard and fusion units *)

let three_op_expr =
  (* ≥ 3 operators, Select-free: fuses to one automaton by default *)
  Algebra.parse
    "pi[x]((rgx:\"[ab]*!x{aba}[ab]*\" | rgx:\"[ab]*!x{bab}[ab]*\") & \
     rgx:\"[ab]*!x{[ab][ab][ab]}[ab]*\")"

let fuses_by_default () =
  let plan = Optimizer.optimize ~sample:"abababab" three_op_expr in
  check Alcotest.bool "fully fused" true (Optimizer.fully_fused plan);
  check Alcotest.int "one automaton" 1 (Optimizer.fused_count plan);
  (match Optimizer.compiled plan with
  | Some ct -> check Alcotest.bool "states under budget" true
      (Compiled.states ct <= Optimizer.threshold plan)
  | None -> Alcotest.fail "fully fused plan must expose its automaton");
  List.iter
    (fun doc ->
      if not (Span_relation.equal (Optimizer.eval plan doc) (Algebra.eval three_op_expr doc))
      then Alcotest.failf "fused differs from oracle on %S" doc)
    [ ""; "aba"; "bab"; "ababab"; "bbaabbab" ]

let starved_guard_materialises () =
  let plan = Optimizer.optimize ~fuse_states:1 three_op_expr in
  check Alcotest.bool "not fully fused" false (Optimizer.fully_fused plan);
  check Alcotest.bool "split into several automata" true (Optimizer.fused_count plan > 1);
  check Alcotest.bool "no single compiled automaton" true (Optimizer.compiled plan = None);
  List.iter
    (fun doc ->
      if not (Span_relation.equal (Optimizer.eval plan doc) (Algebra.eval three_op_expr doc))
      then Alcotest.failf "fallback differs from oracle on %S" doc)
    [ ""; "aba"; "ababab" ]

let select_streams () =
  (* a Select above a fused subtree: the Strhash stream filter *)
  let e =
    Algebra.Select
      (vs [ v "x"; v "y" ], Algebra.formula "[ab]*!x{a[ab]}[ab]*!y{a[ab]}[ab]*")
  in
  let plan = Optimizer.optimize ~sample:"abab" e in
  check Alcotest.bool "selection cannot fuse" false (Optimizer.fully_fused plan);
  List.iter
    (fun doc ->
      if not (Span_relation.equal (Optimizer.eval plan doc) (Algebra.eval e doc)) then
        Alcotest.failf "selection filter differs from oracle on %S" doc)
    [ "abab"; "aaaa"; "ababab"; "ba" ]

let limits_flow_through () =
  (* the cursor's gauge meters the fused document pass: a starved fuel
     budget trips as Limit_exceeded, the taxonomy the CLI maps to 3 *)
  let plan = Optimizer.optimize three_op_expr in
  let limits = Limits.make ~fuel:3 () in
  match Cursor.to_relation (Optimizer.cursor ~limits plan "abababababab") with
  | _ -> Alcotest.fail "expected Limit_exceeded"
  | exception Limits.Spanner_error (Limits.Limit_exceeded _) -> ()

(* ------------------------------------------------------------------ *)
(* Rewrites preserve schema *)

let prop_rewrite_schema =
  QCheck2.Test.make ~name:"rewritten plan keeps the schema" ~count:200 gen_expr
    ~print:Algebra.to_string (fun e ->
      let plan = Optimizer.optimize e in
      Variable.Set.equal (Optimizer.schema plan) (Algebra.schema e)
      && Variable.Set.equal (Algebra.schema (Optimizer.rewritten plan)) (Algebra.schema e))

(* ------------------------------------------------------------------ *)
(* Hostile inputs: the parser's typed error contract *)

let parse_rejects () =
  let rejects s =
    match Algebra.parse s with
    | _ -> Alcotest.failf "parse %S should fail" s
    | exception Limits.Spanner_error (Limits.Parse _) -> ()
  in
  List.iter rejects
    [
      "";
      "pi[";
      "pi[x](";
      "rgx:\"";
      "rgx:\"a";
      "rgx:\"a\\q\"";
      "rgx:\"a\" extra";
      "rgx:\"a\" & ";
      "sel[x,](rgx:\"a\")";
      "sel{x}(rgx:\"a\")";
      "rgx:\"!x{\"";
      "file:\"/etc/hostname\"";
      String.concat "" (List.init 5_000 (fun _ -> "(")) ^ "rgx:\"a\"";
    ]

let parse_accepts () =
  let e = Algebra.parse "  pi [ x , y ] ( rgx:\"!x{a+}\" & ( rgx:\"!y{b}\" | rgx:\"a\" ) ) " in
  check Alcotest.int "whitespace-tolerant parse" 6 (Algebra.size e);
  (* precedence: & binds tighter than | *)
  match Algebra.parse "rgx:\"a\" | rgx:\"b\" & rgx:\"c\"" with
  | Algebra.Union (_, Algebra.Join _) -> ()
  | e -> Alcotest.failf "precedence parse got %s" (Algebra.to_string e)

let file_load_callback () =
  let e = Algebra.parse ~load:(fun path -> "!x{" ^ path ^ "}") "file:\"ab\"" in
  check Alcotest.bool "file leaf resolves through load" true
    (Span_relation.equal (Algebra.eval e "ab") (Algebra.eval (Algebra.formula "!x{ab}") "ab"))

(* ------------------------------------------------------------------ *)
(* Sample helper *)

let sample_prefix_bounds () =
  let doc = String.concat "" (List.init 1000 (fun _ -> "ab")) in
  check Alcotest.int "prefix bounded" 64 (String.length (Sample.prefix ~bytes:64 doc));
  check Alcotest.int "short doc untouched" 4 (String.length (Sample.prefix ~bytes:64 "abab"));
  let ct = Compiled.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  let e = Sample.estimate ~bytes:64 ct doc in
  check Alcotest.int "sampled bytes" 64 e.Sample.sample_bytes;
  check Alcotest.int "full length recorded" 2000 e.Sample.doc_bytes;
  check Alcotest.int "tuples on the prefix" 32 e.Sample.tuples;
  check Alcotest.bool "projected scales up" true (Sample.projected e > 900.0)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "optimizer"
    [
      ( "differential",
        to_alcotest
          [
            prop_optimized_eq_oracle;
            prop_optimized_eq_oracle_sampled;
            prop_starved_guard_eq_oracle;
            prop_starved_tuple_cap;
            prop_rewrite_schema;
          ] );
      ("roundtrip", to_alcotest [ prop_roundtrip; prop_roundtrip_semantics ]);
      ( "units",
        [
          tc "select-free fuses to one automaton" `Quick fuses_by_default;
          tc "starved guard materialises, stays correct" `Quick starved_guard_materialises;
          tc "selection streams through Strhash" `Quick select_streams;
          tc "budget trips through the cursor" `Quick limits_flow_through;
          tc "parser rejects hostile inputs" `Quick parse_rejects;
          tc "parser accepts whitespace and precedence" `Quick parse_accepts;
          tc "file leaf needs an explicit loader" `Quick file_load_callback;
          tc "bounded-prefix sampling" `Quick sample_prefix_bounds;
        ] );
    ]
