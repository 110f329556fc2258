(* Quickstart: Example 1.1 of the paper, end to end.

   Run with:  dune exec examples/quickstart.exe

   The spanner extracts, from a document over {a,b}, all ways of
   splitting it into a prefix x, a single b in the middle (y), and a
   suffix z. *)

open Spanner_core

let () =
  (* 1. Write the spanner as a regex formula.  !x{...} binds variable x
        around a sub-expression — the paper's ⊢x … ⊣x. *)
  let formula = Regex_formula.parse "!x{[ab]*}!y{b}!z{[ab]*}" in

  (* 2. Compile it to an (extended) vset-automaton. *)
  let spanner = Evset.of_formula formula in

  (* 3. Evaluate on a document.  The result is a span relation: a set
        of assignments of spans [i,j⟩ to the variables. *)
  let doc = "ababbab" in
  let relation = Evset.eval spanner doc in
  Format.printf "S(%s):@.%a@." doc (Span_relation.pp ~doc) relation;

  (* 4. The same result, tuple by tuple, through the constant-delay
        enumeration pipeline (linear preprocessing, §2.5). *)
  let prepared = Compiled.prepare (Compiled.of_evset spanner) doc in
  Format.printf "enumerated %d tuples (preprocessing: %d product nodes)@."
    (Compiled.cardinal prepared)
    (Compiled.stats prepared).Compiled.nodes;
  let cursor = Compiled.cursor prepared in
  Seq.iter
    (fun tuple -> Format.printf "  %a@." Span_tuple.pp tuple)
    (Seq.of_dispenser (fun () -> Compiled.cursor_next cursor));

  (* 5. Decision problems (§2.4) are one call each. *)
  Format.printf "satisfiable: %b, hierarchical: %b@." (Evset.satisfiable spanner)
    (Evset.hierarchical spanner);
  let member = Span_tuple.of_list
      [ (Variable.of_string "x", Span.make 1 2);
        (Variable.of_string "y", Span.make 2 3);
        (Variable.of_string "z", Span.make 3 8) ]
  in
  Format.printf "([1,2⟩,[2,3⟩,[3,8⟩) ∈ S(%s): %b@." doc (Evset.accepts_tuple spanner doc member)
