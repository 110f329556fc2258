module Charset = Spanner_fa.Charset
module Strhash = Spanner_util.Strhash

type t = {
  automaton : Evset.t;
  selections : Variable.Set.t list;
  projection : Variable.Set.t;
}

let of_regular e = { automaton = e; selections = []; projection = Evset.vars e }

let schema s = s.projection

let select vars s =
  if not (Variable.Set.subset vars s.projection) then
    invalid_arg "Core_spanner.select: selection variables must be visible";
  { s with selections = vars :: s.selections }

let project vars s = { s with projection = Variable.Set.inter vars s.projection }

(* ------------------------------------------------------------------ *)
(* Simplification                                                      *)

let fresh_hidden =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Variable.of_string (Printf.sprintf "__h%d" !counter)

(* Rewrite a simplified spanner so that (1) every variable mentioned by
   a selection is hidden and private (fresh shadows replace visible
   selection variables), and (2) every hidden variable is globally
   fresh.  After isolation, unioning or joining two spanners can keep
   both selection lists: each list only constrains variables the other
   operand never binds, which is vacuous under schemaless semantics. *)
let isolate s =
  let visible_sel_vars =
    List.fold_left
      (fun acc z -> Variable.Set.union acc (Variable.Set.inter z s.projection))
      Variable.Set.empty s.selections
  in
  (* Step 1: shadow visible selection variables. *)
  let shadow_map =
    Variable.Set.fold (fun v acc -> Variable.Map.add v (fresh_hidden ()) acc) visible_sel_vars
      Variable.Map.empty
  in
  let automaton =
    Variable.Map.fold (fun v v' a -> Evset.duplicate_var a v v') shadow_map s.automaton
  in
  let reselect z =
    Variable.Set.map
      (fun v -> match Variable.Map.find_opt v shadow_map with Some v' -> v' | None -> v)
      z
  in
  let selections = List.map reselect s.selections in
  (* Step 2: freshen the pre-existing hidden variables. *)
  let hidden = Variable.Set.diff (Evset.vars automaton) s.projection in
  let old_hidden = Variable.Set.diff hidden (Variable.Set.of_list (List.map snd (Variable.Map.bindings shadow_map))) in
  let freshen_map =
    Variable.Set.fold (fun v acc -> Variable.Map.add v (fresh_hidden ()) acc) old_hidden
      Variable.Map.empty
  in
  let rename v = match Variable.Map.find_opt v freshen_map with Some v' -> v' | None -> v in
  let automaton = Evset.rename_vars rename automaton in
  let selections = List.map (Variable.Set.map rename) selections in
  { automaton; selections; projection = s.projection }

let rec simplify (e : Algebra.t) =
  match e with
  | Algebra.Formula f ->
      let a = Evset.of_formula f in
      { automaton = a; selections = []; projection = Evset.vars a }
  | Algebra.Automaton a -> { automaton = a; selections = []; projection = Evset.vars a }
  | Algebra.Project (vars, e) -> project vars (simplify e)
  | Algebra.Select (vars, e) ->
      let s = simplify e in
      select (Variable.Set.inter vars (Algebra.schema e)) s
  | Algebra.Union (e1, e2) ->
      let s1 = isolate (simplify e1) and s2 = isolate (simplify e2) in
      {
        automaton = Evset.union s1.automaton s2.automaton;
        selections = s1.selections @ s2.selections;
        projection = Variable.Set.union s1.projection s2.projection;
      }
  | Algebra.Join (e1, e2) ->
      let s1 = isolate (simplify e1) and s2 = isolate (simplify e2) in
      {
        automaton = Evset.join s1.automaton s2.automaton;
        selections = s1.selections @ s2.selections;
        projection = Variable.Set.union s1.projection s2.projection;
      }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let selections_hold ~equal selections tuple =
  List.for_all
    (fun z ->
      let spans =
        Variable.Set.fold
          (fun x acc -> match Span_tuple.find tuple x with None -> acc | Some s -> s :: acc)
          z []
      in
      match spans with
      | [] | [ _ ] -> true
      | first :: rest -> List.for_all (equal first) rest)
    selections

let content_equal hash a b =
  Strhash.equal_span hash
    ~a:(Span.left a - 1, Span.right a - 1)
    ~b:(Span.left b - 1, Span.right b - 1)

let satisfying_tuples s doc =
  let equal = content_equal (Strhash.make doc) in
  let cur = Compiled.cursor (Compiled.prepare (Compiled.of_evset s.automaton) doc) in
  Seq.filter (selections_hold ~equal s.selections)
    (Seq.of_dispenser (fun () -> Compiled.cursor_next cur))

let eval s doc =
  Seq.fold_left
    (fun acc u -> Span_relation.add acc (Span_tuple.project s.projection u))
    (Span_relation.empty s.projection)
    (satisfying_tuples s doc)

let eval_algebra e doc = eval (simplify e) doc

let nonempty_on s doc = not (Seq.is_empty (satisfying_tuples s doc))

let model_check s doc t =
  Seq.exists
    (fun u -> Span_tuple.equal (Span_tuple.project s.projection u) t)
    (satisfying_tuples s doc)

(* ------------------------------------------------------------------ *)
(* Bounded static analysis                                             *)

type bounded = [ `Yes | `No | `Unknown ]

let alphabet_of e =
  let cs = ref Charset.empty in
  for q = 0 to Evset.size e - 1 do
    Evset.iter_letter_arcs e q (fun c _ -> cs := Charset.union !cs c)
  done;
  Charset.elements !cs

let rec doc_candidates alphabet len =
  (* All documents over [alphabet] of length exactly [len], lazily. *)
  if len = 0 then Seq.return ""
  else
    Seq.concat_map
      (fun shorter -> List.to_seq (List.map (fun c -> shorter ^ String.make 1 c) alphabet))
      (doc_candidates alphabet (len - 1))

let all_docs alphabet max_len =
  Seq.concat_map (fun len -> doc_candidates alphabet len) (Seq.init (max_len + 1) Fun.id)

let satisfiable ~max_len s =
  if not (Evset.satisfiable s.automaton) then `No
  else if s.selections = [] then `Yes
  else
    let alphabet = alphabet_of s.automaton in
    if Seq.exists (fun doc -> nonempty_on s doc) (all_docs alphabet max_len) then `Yes
    else `Unknown

let contained_in ~max_len a b =
  let alphabet =
    List.sort_uniq Char.compare (alphabet_of a.automaton @ alphabet_of b.automaton)
  in
  let counterexample doc =
    let ra = eval a doc and rb = eval b doc in
    List.exists (fun t -> not (Span_relation.mem rb t)) (Span_relation.tuples ra)
  in
  if Seq.exists counterexample (all_docs alphabet max_len) then `No else `Unknown

let equivalent ~max_len a b =
  match (contained_in ~max_len a b, contained_in ~max_len b a) with
  | `No, _ | _, `No -> `No
  | _ -> `Unknown
