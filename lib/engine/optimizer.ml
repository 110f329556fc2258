open Spanner_core
module Limits = Spanner_util.Limits
module Strhash = Spanner_util.Strhash

let default_fuse_states = 4096

(* ------------------------------------------------------------------ *)
(* Rewrite rules.

   All three pushes preserve the schemaless semantics of Algebra.eval:

   - π below ∪ and ⋈: projection distributes over union, and over a
     natural join as long as every shared variable survives on both
     sides (compatibility of two tuples only constrains their common
     variables, and those bindings are untouched by the projection).
   - π ∘ π collapses to the intersection, and a projection that keeps
     the whole schema disappears.
   - ς moves towards the automaton it filters: through a projection
     whose variables it survives (its unbound variables are ignored by
     satisfies_equality either way), below a union, and into the one
     join operand that mentions its variables.  A ς is only pushed
     while the subtree underneath still contains another ς — over a
     Select-free subtree it stays put, so the subtree below remains
     fusable into a single automaton and the ς runs as one stream
     filter on top.
   - ς over ≤ 1 in-schema variable is a tautology and is dropped.  *)

let rec rewrite e =
  match e with
  | Algebra.Formula _ | Algebra.Automaton _ -> e
  | Algebra.Union (a, b) -> Algebra.Union (rewrite a, rewrite b)
  | Algebra.Join (a, b) -> Algebra.Join (rewrite a, rewrite b)
  | Algebra.Project (v, e) -> push_project v (rewrite e)
  | Algebra.Select (z, e) -> push_select z (rewrite e)

and push_project v e =
  if Variable.Set.subset (Algebra.schema e) v then e
  else
    let reproject inner =
      let v = Variable.Set.inter v (Algebra.schema inner) in
      if Variable.Set.subset (Algebra.schema inner) v then inner
      else Algebra.Project (v, inner)
    in
    match e with
    | Algebra.Project (w, e') -> push_project (Variable.Set.inter v w) e'
    | Algebra.Union (a, b) -> Algebra.Union (push_project v a, push_project v b)
    | Algebra.Join (a, b) ->
        let shared = Variable.Set.inter (Algebra.schema a) (Algebra.schema b) in
        let keep = Variable.Set.union v shared in
        reproject (Algebra.Join (push_project keep a, push_project keep b))
    | Algebra.Select (z, e') ->
        let keep = Variable.Set.union v (Variable.Set.inter z (Algebra.schema e')) in
        reproject (Algebra.Select (z, push_project keep e'))
    | Algebra.Formula _ | Algebra.Automaton _ ->
        Algebra.Project (Variable.Set.inter v (Algebra.schema e), e)

and push_select z e =
  let z = Variable.Set.inter z (Algebra.schema e) in
  if Variable.Set.cardinal z <= 1 then e
  else if Algebra.is_regular e then Algebra.Select (z, e)
  else
    match e with
    | Algebra.Union (a, b) -> Algebra.Union (push_select z a, push_select z b)
    | Algebra.Join (a, b)
      when Variable.Set.is_empty (Variable.Set.inter z (Algebra.schema b)) ->
        Algebra.Join (push_select z a, b)
    | Algebra.Join (a, b)
      when Variable.Set.is_empty (Variable.Set.inter z (Algebra.schema a)) ->
        Algebra.Join (a, push_select z b)
    | Algebra.Project (v, e') ->
        (* z ⊆ v by the intersection above, so ς and π commute *)
        push_project v (push_select z e')
    | Algebra.Select (z', e') -> Algebra.Select (z', push_select z e')
    | Algebra.Join _ | Algebra.Formula _ | Algebra.Automaton _ -> Algebra.Select (z, e)

(* ------------------------------------------------------------------ *)
(* The annotated physical plan *)

type node = {
  expr : Algebra.t;
  schema : Variable.Set.t;
  shape : shape;
  mutable sampled : Sample.estimate option;
}

and shape =
  | Fused of { ct : Compiled.t; est_states : int }
  | Stream_union of node * node * string
  | Stream_join of node * node * string
  | Stream_project of Variable.Set.t * node
  | Stream_select of Variable.Set.t * node

type t = {
  original : Algebra.t;
  rewritten : Algebra.t;
  root : node;
  threshold : int;
  sample_bytes : int option;
  reordered : bool;
}

let original t = t.original
let rewritten t = t.rewritten
let schema t = t.root.schema
let threshold t = t.threshold

let rec count_fused node =
  match node.shape with
  | Fused _ -> 1
  | Stream_union (a, b, _) | Stream_join (a, b, _) -> count_fused a + count_fused b
  | Stream_project (_, sub) | Stream_select (_, sub) -> count_fused sub

let fused_count t = count_fused t.root
let fully_fused t = match t.root.shape with Fused _ -> true | _ -> false
let compiled t = match t.root.shape with Fused { ct; _ } -> Some ct | _ -> None

(* ------------------------------------------------------------------ *)
(* Fusion with the cost guard *)

let mul_cap a b = if a > 0 && b > 0 && a > max_int / b then max_int else a * b

(* A subtree still open for fusion carries its symbolic automaton and
   the state estimate its construction was approved under; a [Done]
   subtree has committed to a physical shape. *)
type built = Auto of Algebra.t * Evset.t * int | Done of node

let seal ~limits built =
  match built with
  | Done node -> node
  | Auto (expr, ev, est) ->
      {
        expr;
        schema = Evset.vars ev;
        shape = Fused { ct = Compiled.of_evset ~limits ev; est_states = est };
        sampled = None;
      }

let stream_reason = "operand contains a string-equality selection"

(* a Done operand either carries a selection somewhere in its subtree
   or was split by the fuse guard — tell the explain reader which *)
let rec has_select node =
  match node.shape with
  | Stream_select _ -> true
  | Fused _ -> false
  | Stream_project (_, a) -> has_select a
  | Stream_union (a, b, _) | Stream_join (a, b, _) -> has_select a || has_select b

let done_reason na nb =
  if has_select na || has_select nb then stream_reason
  else "operand already split by the fuse budget"

let guard_reason est threshold =
  Printf.sprintf "estimated %s states > fuse budget %d"
    (if est = max_int then "overflowing" else string_of_int est)
    threshold

let build ~limits ~threshold ~sample expr =
  let reordered = ref false in
  let rec go expr =
    match expr with
    | Algebra.Formula f ->
        let ev = Evset.of_formula ~limits f in
        Auto (expr, ev, Evset.size ev)
    | Algebra.Automaton ev -> Auto (expr, ev, Evset.size ev)
    | Algebra.Project (v, e) -> (
        match go e with
        | Auto (_, ev, est) -> Auto (expr, Evset.project v ev, est)
        | Done sub ->
            Done
              {
                expr;
                schema = Variable.Set.inter v sub.schema;
                shape = Stream_project (v, sub);
                sampled = None;
              })
    | Algebra.Select (z, e) ->
        let sub = seal ~limits (go e) in
        Done { expr; schema = sub.schema; shape = Stream_select (z, sub); sampled = None }
    | Algebra.Union (a, b) -> (
        match (go a, go b) with
        | Auto (_, eva, ea), Auto (_, evb, eb) when 1 + ea + eb <= threshold ->
            Auto (expr, Evset.union eva evb, 1 + ea + eb)
        | ba, bb ->
            let na = seal ~limits ba and nb = seal ~limits bb in
            let reason =
              match (ba, bb) with
              | Auto (_, _, ea), Auto (_, _, eb) -> guard_reason (1 + ea + eb) threshold
              | _ -> done_reason na nb
            in
            Done
              {
                expr;
                schema = Variable.Set.union na.schema nb.schema;
                shape = Stream_union (na, nb, reason);
                sampled = None;
              })
    | Algebra.Join _ ->
        let operands = flatten expr [] in
        let operands = List.map go operands in
        let operands = order operands in
        join_chain operands
  and flatten expr acc =
    match expr with
    | Algebra.Join (a, b) -> flatten a (flatten b acc)
    | e -> e :: acc
  and order operands =
    (* Reorder a ⋈-chain cheapest-first, by sampled cardinality of each
       fusable operand (a bounded-prefix document pass per operand);
       operands that cannot fuse keep their automaton cost unknown and
       go last.  Joins are AC under the schemaless semantics, so any
       order is correct — this one keeps the accumulated left side
       small, both for the product construction and for the
       materialised fallback's hash tables. *)
    match sample with
    | None -> operands
    | Some doc ->
        let keyed =
          List.map
            (fun b ->
              let key =
                match b with
                | Auto (_, ev, _) -> (
                    match Sample.estimate ~limits (Compiled.of_evset ~limits ev) doc with
                    | e -> (e.Sample.tuples, e.Sample.nodes)
                    | exception Limits.Spanner_error _ -> (max_int, max_int))
                | Done _ -> (max_int, max_int)
              in
              (key, b))
            operands
        in
        let sorted = List.stable_sort (fun (ka, _) (kb, _) -> compare ka kb) keyed in
        reordered := !reordered || List.exists2 (fun (_, b) b' -> b != b') sorted operands;
        List.map snd sorted
  and join_chain operands =
    match operands with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun acc b ->
            let expr =
              let expr_of = function Auto (e, _, _) -> e | Done n -> n.expr in
              Algebra.Join (expr_of acc, expr_of b)
            in
            match (acc, b) with
            | Auto (_, eva, ea), Auto (_, evb, eb) ->
                let branches = Evset.join_branches eva evb in
                (* per-branch product ≤ ea·eb states, plus one fresh
                   initial state per union folding the branches *)
                let est =
                  match mul_cap (mul_cap ea eb) branches with
                  | e when e = max_int -> max_int
                  | e -> e + branches
                in
                if est <= threshold then
                  let ev = Evset.join eva evb in
                  (* the product explored only reachable pairs; charge
                     parents for what was actually built *)
                  Auto (expr, ev, max est (Evset.size ev))
                else
                  let na = seal ~limits acc and nb = seal ~limits b in
                  Done
                    {
                      expr;
                      schema = Variable.Set.union na.schema nb.schema;
                      shape = Stream_join (na, nb, guard_reason est threshold);
                      sampled = None;
                    }
            | _ ->
                let na = seal ~limits acc and nb = seal ~limits b in
                Done
                  {
                    expr;
                    schema = Variable.Set.union na.schema nb.schema;
                    shape = Stream_join (na, nb, done_reason na nb);
                    sampled = None;
                  })
          first rest
  in
  let root = seal ~limits (go expr) in
  (root, !reordered)

let rec annotate ~limits ~doc node =
  (match node.shape with
  | Fused { ct; _ } -> (
      match Sample.estimate ~limits ct doc with
      | e -> node.sampled <- Some e
      | exception Limits.Spanner_error _ -> ())
  | Stream_union (a, b, _) | Stream_join (a, b, _) ->
      annotate ~limits ~doc a;
      annotate ~limits ~doc b
  | Stream_project (_, sub) | Stream_select (_, sub) -> annotate ~limits ~doc sub);
  ()

let optimize ?(limits = Limits.none) ?(fuse_states = default_fuse_states) ?sample expr =
  let threshold = max 1 (min fuse_states limits.Limits.max_states) in
  let rewritten = rewrite expr in
  let root, reordered = build ~limits ~threshold ~sample rewritten in
  (match sample with None -> () | Some doc -> annotate ~limits ~doc root);
  {
    original = expr;
    rewritten;
    root;
    threshold;
    sample_bytes = Option.map (fun d -> String.length (Sample.prefix d)) sample;
    reordered;
  }

(* ------------------------------------------------------------------ *)
(* Execution: results stream out of the fused automata; the remaining
   operators run as stream combinators on top. *)

let cursor ?(limits = Limits.none) t doc =
  let g = Limits.start limits in
  (* ς filters compare factors in O(1) against rolling hashes of the
     document, built on the first filtered tuple *)
  let equal = lazy (Core_spanner.content_equal (Strhash.make doc)) in
  let rec go node =
    match node.shape with
    | Fused { ct; _ } -> Cursor.of_compiled ~gauge:g (Compiled.prepare_with_gauge g ct doc)
    | Stream_select (z, sub) ->
        let c = go sub in
        let rec pull () =
          match Cursor.next c with
          | None -> None
          | Some tu when Core_spanner.selections_hold ~equal:(Lazy.force equal) [ z ] tu ->
              Some tu
          | Some _ -> pull ()
        in
        Cursor.of_fun ~gauge:g ~vars:node.schema pull
    | Stream_project (v, sub) ->
        let c = go sub in
        let pull () = Option.map (Span_tuple.project v) (Cursor.next c) in
        Cursor.of_fun ~gauge:g ~vars:node.schema (Cursor.dedup_wrap g pull)
    | Stream_union (a, b, _) ->
        let ca = go a and cb = go b in
        let pull () = match Cursor.next ca with None -> Cursor.next cb | t -> t in
        Cursor.of_fun ~gauge:g ~vars:node.schema (Cursor.dedup_wrap g pull)
    | Stream_join (a, b, _) ->
        (* the documented fallback: both operands stream in, the join
           itself materialises (hash join), and the result streams out *)
        let ra = Cursor.to_relation (go a) in
        let rb = Cursor.to_relation (go b) in
        let r = Span_relation.join ra rb in
        let k = Span_relation.cardinal r in
        Limits.charge g k;
        Limits.check_tuples g k;
        Cursor.of_relation r
  in
  go t.root

let eval ?limits t doc = Cursor.to_relation (cursor ?limits t doc)

(* ------------------------------------------------------------------ *)
(* The costed plan tree, in the stable format explain locks in cram *)

let pp_vars ppf vars =
  Format.fprintf ppf "[%s]"
    (String.concat ", " (List.map Variable.name (Variable.Set.elements vars)))

let pp_sampled ppf node =
  match node.sampled with
  | None -> ()
  | Some e ->
      Format.fprintf ppf "; sample: %d tuple(s) in %d bytes" e.Sample.tuples
        e.Sample.sample_bytes

let rec pp_node ppf ~indent node =
  let pad = String.make indent ' ' in
  (match node.shape with
  | Fused { ct; est_states } ->
      Format.fprintf ppf "%sfuse: %d states (est %d)%a <- %a@." pad (Compiled.states ct)
        est_states pp_sampled node Algebra.pp node.expr
  | Stream_union (a, b, reason) ->
      Format.fprintf ppf "%sunion (stream, dedup: %s)@." pad reason;
      pp_node ppf ~indent:(indent + 2) a;
      pp_node ppf ~indent:(indent + 2) b
  | Stream_join (a, b, reason) ->
      Format.fprintf ppf "%sjoin (materialise: %s)@." pad reason;
      pp_node ppf ~indent:(indent + 2) a;
      pp_node ppf ~indent:(indent + 2) b
  | Stream_project (v, sub) ->
      Format.fprintf ppf "%sproject %a (stream, dedup)@." pad pp_vars v;
      pp_node ppf ~indent:(indent + 2) sub
  | Stream_select (z, sub) ->
      Format.fprintf ppf "%sselect %a (stream: Strhash equality filter)@." pad pp_vars z;
      pp_node ppf ~indent:(indent + 2) sub);
  ()

let pp ppf t =
  let fused = fused_count t in
  Format.fprintf ppf "plan: algebra (%s)@."
    (if fully_fused t then "fully fused: one automaton"
     else Printf.sprintf "%d fused automat%s under stream operators" fused
         (if fused = 1 then "on" else "a"));
  Format.fprintf ppf "  rewritten: %a@." Algebra.pp t.rewritten;
  Format.fprintf ppf "  fuse budget: %d states@." t.threshold;
  (match t.sample_bytes with
  | Some b ->
      Format.fprintf ppf "  sample: %d bytes%s@." b
        (if t.reordered then "; join chain reordered by sampled cardinality" else "")
  | None -> Format.fprintf ppf "  sample: none (join chains keep their written order)@.");
  pp_node ppf ~indent:2 t.root
