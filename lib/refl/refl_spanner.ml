open Spanner_core
module Charset = Spanner_fa.Charset
module Regex = Spanner_fa.Regex
module To_regex = Spanner_fa.To_regex
module Bitset = Spanner_util.Bitset
module Strhash = Spanner_util.Strhash

type t = { automaton : Refl_automaton.t }

let of_automaton a =
  match Refl_automaton.soundness a with
  | Ok () -> { automaton = a }
  | Error reason -> invalid_arg ("Refl_spanner.of_automaton: unsound automaton: " ^ reason)

let of_regex r = of_automaton (Refl_automaton.of_regex r)

let parse s = of_regex (Refl_regex.parse s)

let automaton s = s.automaton

let vars s = Refl_automaton.vars s.automaton

let reference_bounded s = Refl_automaton.reference_bounded s.automaton

(* ------------------------------------------------------------------ *)
(* Model checking (§3.3): linear in |doc|                              *)

let boundary_sets doc tuple =
  let n = String.length doc in
  let sets = Array.make (n + 1) Marker.Set.empty in
  List.iter
    (fun (x, s) ->
      sets.(Span.left s - 1) <- Marker.Set.add (Marker.Open x) sets.(Span.left s - 1);
      sets.(Span.right s - 1) <- Marker.Set.add (Marker.Close x) sets.(Span.right s - 1))
    (Span_tuple.bindings tuple);
  sets

let model_check s doc tuple =
  let a = s.automaton in
  let n = String.length doc in
  if
    List.exists (fun (_, sp) -> not (Span.fits sp doc)) (Span_tuple.bindings tuple)
    || not (Variable.Set.subset (Span_tuple.domain tuple) (Refl_automaton.vars a))
  then false
  else begin
    let sets = boundary_sets doc tuple in
    (* prefix.(b) = number of markers at boundaries < b, for O(1)
       "no markers strictly inside a range" tests on reference jumps. *)
    let prefix = Array.make (n + 2) 0 in
    for b = 0 to n do
      prefix.(b + 1) <- prefix.(b) + Marker.Set.cardinal sets.(b)
    done;
    let markers_between lo hi = if hi <= lo then 0 else prefix.(hi) - prefix.(lo) in
    let hash = Strhash.make doc in
    let domain = Span_tuple.domain tuple in
    let module Key = struct
      type t = int * int * Marker.Set.t (* state, boundary, consumed *)

      let compare = Stdlib.compare
    end in
    let module Key_set = Set.Make (Key) in
    let seen = ref Key_set.empty in
    let accept = ref false in
    let rec explore q b consumed =
      let key = (q, b, consumed) in
      if (not !accept) && not (Key_set.mem key !seen) then begin
        seen := Key_set.add key !seen;
        let ready = Marker.Set.equal consumed sets.(b) in
        if b = n && ready && Refl_automaton.is_final a q then accept := true
        else
          Refl_automaton.iter_transitions a q (fun label dst ->
              match label with
              | Refl_automaton.Eps -> explore dst b consumed
              | Refl_automaton.Mark m ->
                  if Marker.Set.mem m sets.(b) && not (Marker.Set.mem m consumed) then
                    explore dst b (Marker.Set.add m consumed)
              | Refl_automaton.Chars cs ->
                  if ready && b < n && Charset.mem cs doc.[b] then
                    explore dst (b + 1) Marker.Set.empty
              | Refl_automaton.Ref x ->
                  if ready && Variable.Set.mem x domain then begin
                    let sp = Span_tuple.get tuple x in
                    let len = Span.len sp in
                    if
                      b + len <= n
                      && markers_between (b + 1) (b + len) = 0
                      && Strhash.equal_sub hash b (Span.left sp - 1) len
                    then explore dst (b + len) Marker.Set.empty
                  end)
      end
    in
    explore (Refl_automaton.initial a) 0 Marker.Set.empty;
    !accept
  end

(* ------------------------------------------------------------------ *)
(* Materialising evaluation                                            *)

module Eval_config = struct
  type t = int * int * int Variable.Map.t * Span.t Variable.Map.t
  (* state, boundary, open positions, closed spans *)

  let compare = Stdlib.compare
end

module Eval_set = Set.Make (Eval_config)

let eval_general ~stop_at_first s doc =
  let a = s.automaton in
  let n = String.length doc in
  let hash = Strhash.make doc in
  (* Static pruning: only explore states that can reach a final
     state. *)
  let coreach = Refl_automaton.coreachable a in
  let result = ref (Span_relation.empty (Refl_automaton.vars a)) in
  let exception Done in
  let seen = ref Eval_set.empty in
  let rec explore q b opens closes =
    let config = (q, b, opens, closes) in
    if Bitset.mem coreach q && not (Eval_set.mem config !seen) then begin
      seen := Eval_set.add config !seen;
      if b = n && Refl_automaton.is_final a q then begin
        let tuple =
          Variable.Map.fold (fun x sp acc -> Span_tuple.bind acc x sp) closes Span_tuple.empty
        in
        result := Span_relation.add !result tuple;
        if stop_at_first then raise Done
      end;
      Refl_automaton.iter_transitions a q (fun label dst ->
          match label with
          | Refl_automaton.Eps -> explore dst b opens closes
          | Refl_automaton.Mark (Marker.Open x) ->
              explore dst b (Variable.Map.add x (b + 1) opens) closes
          | Refl_automaton.Mark (Marker.Close x) -> (
              match Variable.Map.find_opt x opens with
              | Some left ->
                  explore dst b (Variable.Map.remove x opens)
                    (Variable.Map.add x (Span.make left (b + 1)) closes)
              | None -> ())
          | Refl_automaton.Chars cs ->
              if b < n && Charset.mem cs doc.[b] then explore dst (b + 1) opens closes
          | Refl_automaton.Ref x -> (
              match Variable.Map.find_opt x closes with
              | Some sp ->
                  let len = Span.len sp in
                  if b + len <= n && Strhash.equal_sub hash b (Span.left sp - 1) len then
                    explore dst (b + len) opens closes
              | None -> ()))
    end
  in
  (try explore (Refl_automaton.initial a) 0 Variable.Map.empty Variable.Map.empty
   with Done -> ());
  !result

let eval s doc = eval_general ~stop_at_first:false s doc

let nonempty_on s doc = not (Span_relation.is_empty (eval_general ~stop_at_first:true s doc))

let satisfiable s =
  (* Soundness (certified at construction) makes any accepting graph
     path a well-formed ref-word, so plain reachability suffices
     (§3.3). *)
  let a = s.automaton in
  List.exists (Bitset.mem (Refl_automaton.reachable a)) (Refl_automaton.finals a)

(* ------------------------------------------------------------------ *)
(* refl → core (§3.2)                                                  *)

let to_core s =
  if not (reference_bounded s) then
    invalid_arg "Refl_spanner.to_core: spanner is not reference-bounded (not a core spanner)";
  let a = s.automaton in
  let b = Vset.Builder.create () in
  for _ = 1 to Refl_automaton.size a do
    ignore (Vset.Builder.add_state b)
  done;
  let copies : Variable.t list Variable.Map.t ref = ref Variable.Map.empty in
  let fresh_copy =
    let counter = ref 0 in
    fun x ->
      incr counter;
      let y = Variable.of_string (Printf.sprintf "__ref_%s_%d" (Variable.name x) !counter) in
      copies :=
        Variable.Map.update x
          (fun prev -> Some (y :: Option.value ~default:[] prev))
          !copies;
      y
  in
  for q = 0 to Refl_automaton.size a - 1 do
    Refl_automaton.iter_transitions a q (fun label dst ->
        match label with
        | Refl_automaton.Eps -> Vset.Builder.add_eps b q dst
        | Refl_automaton.Chars cs -> Vset.Builder.add_chars b q cs dst
        | Refl_automaton.Mark m -> Vset.Builder.add_mark b q m dst
        | Refl_automaton.Ref x ->
            (* q --⊢y--> m --Σ loop--> m --⊣y--> dst *)
            let y = fresh_copy x in
            let m = Vset.Builder.add_state b in
            Vset.Builder.add_mark b q (Marker.Open y) m;
            Vset.Builder.add_chars b m Charset.full m;
            Vset.Builder.add_mark b m (Marker.Close y) dst)
  done;
  let copy_vars =
    Variable.Map.fold
      (fun _ ys acc -> List.fold_left (fun acc y -> Variable.Set.add y acc) acc ys)
      !copies Variable.Set.empty
  in
  let all_vars = Variable.Set.union (Refl_automaton.vars a) copy_vars in
  let vset =
    Vset.Builder.finish b ~initial:(Refl_automaton.initial a)
      ~finals:(Refl_automaton.finals a) ~vars:all_vars
  in
  let selections =
    Variable.Map.fold
      (fun x ys acc ->
        if ys = [] then acc else Variable.Set.of_list (x :: ys) :: acc)
      !copies []
  in
  {
    Core_spanner.automaton = Evset.of_vset vset;
    selections;
    projection = Refl_automaton.vars a;
  }

(* ------------------------------------------------------------------ *)
(* core → refl for the non-overlapping fragment (§3.2)                 *)

let rec formula_to_regex = function
  | Regex_formula.Empty -> Regex.Empty
  | Regex_formula.Epsilon -> Regex.Epsilon
  | Regex_formula.Chars cs -> Regex.Chars cs
  | Regex_formula.Bind (x, _) ->
      invalid_arg
        (Printf.sprintf
           "Refl_spanner.of_core_formula: binding of %s nested inside a selected binding"
           (Variable.name x))
  | Regex_formula.Concat (f, g) -> Regex.concat (formula_to_regex f) (formula_to_regex g)
  | Regex_formula.Alt (f, g) -> Regex.alt (formula_to_regex f) (formula_to_regex g)
  | Regex_formula.Star f -> Regex.star (formula_to_regex f)
  | Regex_formula.Plus f -> Regex.plus (formula_to_regex f)
  | Regex_formula.Opt f -> Regex.opt (formula_to_regex f)

let of_core_formula ~formula ~selections =
  (* Drop degenerate classes; merge classes sharing a variable. *)
  let selections = List.filter (fun z -> Variable.Set.cardinal z >= 2) selections in
  let rec merge acc = function
    | [] -> acc
    | z :: rest ->
        let touching, disjoint =
          List.partition (fun z' -> not (Variable.Set.is_empty (Variable.Set.inter z z'))) acc
        in
        merge (List.fold_left Variable.Set.union z touching :: disjoint) rest
  in
  let classes = merge [] selections in
  let selected =
    List.fold_left Variable.Set.union Variable.Set.empty classes
  in
  (* Fragment check 1: selected variables must always be bound. *)
  (match Regex_formula.functionality formula with
  | Regex_formula.Ill_formed reason -> invalid_arg ("Refl_spanner.of_core_formula: " ^ reason)
  | Regex_formula.Total -> ()
  | Regex_formula.Schemaless ->
      (* Fine as long as the *selected* variables are always bound;
         verified during collection below. *)
      ());
  (* Collect the in-order sequence of selected bindings with their
     content regexes, rejecting nesting/iteration around them. *)
  let order = ref [] in
  let bodies = ref Variable.Map.empty in
  let rec collect ~ctx f =
    match f with
    | Regex_formula.Empty | Regex_formula.Epsilon | Regex_formula.Chars _ -> ()
    | Regex_formula.Bind (x, body) ->
        if Variable.Set.mem x selected then begin
          (match ctx with
          | `Top -> ()
          | `Branch ->
              invalid_arg
                (Printf.sprintf
                   "Refl_spanner.of_core_formula: selected variable %s under alternation or \
                    iteration is outside the supported fragment"
                   (Variable.name x)));
          order := x :: !order;
          bodies := Variable.Map.add x (formula_to_regex body) !bodies
        end
        else collect ~ctx:`Branch body
    | Regex_formula.Concat (f1, f2) ->
        collect ~ctx f1;
        collect ~ctx f2
    | Regex_formula.Alt (f1, f2) ->
        collect ~ctx:`Branch f1;
        collect ~ctx:`Branch f2
    | Regex_formula.Star f1 | Regex_formula.Plus f1 | Regex_formula.Opt f1 ->
        collect ~ctx:`Branch f1
  in
  collect ~ctx:`Top formula;
  let order = List.rev !order in
  List.iter
    (fun z ->
      Variable.Set.iter
        (fun x ->
          if not (Variable.Map.mem x !bodies) then
            invalid_arg
              (Printf.sprintf
                 "Refl_spanner.of_core_formula: selected variable %s is optional or missing"
                 (Variable.name x)))
        z)
    classes;
  (* Per class: the representative is its first binding in document
     order; its content language is refined to the intersection of the
     class (the β/β′ example of §3.2). *)
  let class_of x = List.find_opt (fun z -> Variable.Set.mem x z) classes in
  let position x =
    let rec find i = function
      | [] -> invalid_arg "Refl_spanner.of_core_formula: internal: variable not collected"
      | y :: rest -> if Variable.equal x y then i else find (i + 1) rest
    in
    find 0 order
  in
  let representative z =
    List.fold_left
      (fun best x -> if position x < position best then x else best)
      (Variable.Set.choose z) (Variable.Set.elements z)
  in
  let bind name body =
    let x = Variable.of_string name in
    match class_of x with
    | None -> Refl_regex.Bind (x, body)
    | Some z ->
        let repr = representative z in
        if Variable.equal x repr then begin
          let contents =
            List.map (fun y -> Variable.Map.find y !bodies) (Variable.Set.elements z)
          in
          let refined = To_regex.intersection_regex contents in
          Refl_regex.Bind (x, Refl_regex.of_formula (Regex_formula.of_regex refined))
        end
        else Refl_regex.Bind (x, Refl_regex.Ref repr)
  in
  of_regex (Regex_formula.fold { Refl_regex.syntax with bind = Some bind } formula)

(* ------------------------------------------------------------------ *)
(* Sound containment via ref-language containment (§3.3 discussion)    *)

let contains_sound big small =
  let a = big.automaton and b = small.automaton in
  let eps_closure auto set =
    Bitset.close set (fun q visit ->
        Refl_automaton.iter_transitions auto q (fun label dst ->
            if label = Refl_automaton.Eps then visit dst))
  in
  let step_a set atom =
    let next = Bitset.create (Refl_automaton.size a) in
    Bitset.iter
      (fun q ->
        Refl_automaton.iter_transitions a q (fun label dst ->
            match (atom, label) with
            | `Char c, Refl_automaton.Chars cs when Charset.mem cs c -> Bitset.add next dst
            | `Mark m, Refl_automaton.Mark m' when Marker.equal m m' -> Bitset.add next dst
            | `Ref x, Refl_automaton.Ref y when Variable.equal x y -> Bitset.add next dst
            | (`Char _ | `Mark _ | `Ref _), _ -> ()))
      set;
    eps_closure a next
  in
  let has_final set =
    Bitset.fold (fun q acc -> acc || Refl_automaton.is_final a q) set false
  in
  (* explore (state of b, subset of a) pairs *)
  let seen = Bitset.Tbl.create 64 in
  let visited qb set = Bitset.seen_pair seen ~capacity:(Refl_automaton.size b) qb set in
  let start_a =
    eps_closure a (Bitset.of_list (Refl_automaton.size a) [ Refl_automaton.initial a ])
  in
  let start_b =
    eps_closure b (Bitset.of_list (Refl_automaton.size b) [ Refl_automaton.initial b ])
  in
  let ok = ref true in
  let pending = Queue.create () in
  Bitset.iter
    (fun qb -> if not (visited qb start_a) then Queue.add (qb, start_a) pending)
    start_b;
  while !ok && not (Queue.is_empty pending) do
    let qb, set = Queue.take pending in
    if Refl_automaton.is_final b qb && not (has_final set) then ok := false
    else
      Refl_automaton.iter_transitions b qb (fun label dst ->
          let push atom =
            let next = step_a set atom in
            (* close b-side eps from dst *)
            let dsts = eps_closure b (Bitset.of_list (Refl_automaton.size b) [ dst ]) in
            Bitset.iter (fun q -> if not (visited q next) then Queue.add (q, next) pending) dsts
          in
          match label with
          | Refl_automaton.Eps -> ()
          | Refl_automaton.Chars cs -> Charset.iter (fun c -> push (`Char c)) cs
          | Refl_automaton.Mark m -> push (`Mark m)
          | Refl_automaton.Ref x -> push (`Ref x))
  done;
  !ok
