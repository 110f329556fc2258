module Charset = Spanner_fa.Charset
module Bitset = Spanner_util.Bitset
module Vec = Spanner_util.Vec

type state = int

type label = Eps | Chars of Charset.t | Mark of Marker.t

type t = {
  n : int;
  initial : state;
  final_set : Bitset.t;
  trans : (label * state) list array;
  vars : Variable.Set.t;
}

module Builder = struct
  type t = { mutable count : int; btrans : (label * state) list Vec.t }

  let create () = { count = 0; btrans = Vec.create () }

  let add_state b =
    ignore (Vec.push b.btrans []);
    let q = b.count in
    b.count <- b.count + 1;
    q

  let add_label b src label dst = Vec.set b.btrans src ((label, dst) :: Vec.get b.btrans src)

  let add_eps b src dst = add_label b src Eps dst

  let add_chars b src cs dst = if not (Charset.is_empty cs) then add_label b src (Chars cs) dst

  let add_char b src c dst = add_chars b src (Charset.singleton c) dst

  let add_mark b src m dst = add_label b src (Mark m) dst

  let finish b ~initial ~finals ~vars =
    let used = ref Variable.Set.empty in
    Vec.iter
      (List.iter (fun (label, _) ->
           match label with
           | Mark m -> used := Variable.Set.add (Marker.variable m) !used
           | Eps | Chars _ -> ()))
      b.btrans;
    if not (Variable.Set.subset !used vars) then
      invalid_arg "Vset.Builder.finish: a marker arc uses a variable outside ~vars";
    let final_set = Bitset.create (max b.count 1) in
    List.iter (Bitset.add final_set) finals;
    { n = b.count; initial; final_set; trans = Vec.to_array b.btrans; vars }
end

let size v = v.n

let initial v = v.initial

let finals v = Bitset.elements v.final_set

let is_final v q = Bitset.mem v.final_set q

let vars v = v.vars

let iter_transitions v q f = List.iter (fun (label, dst) -> f label dst) v.trans.(q)

(* ------------------------------------------------------------------ *)
(* Compilation from regex formulas                                     *)

let of_formula formula =
  (match Regex_formula.functionality formula with
  | Ill_formed reason -> invalid_arg ("Vset.of_formula: ill-formed formula: " ^ reason)
  | Total | Schemaless -> ());
  let b = Builder.create () in
  let mark src ~opening x dst =
    let x = Variable.of_string x in
    Builder.add_mark b src (if opening then Marker.Open x else Marker.Close x) dst
  in
  let entry, exit_ =
    Regex_formula.fold
      (Spanner_fa.Regex.thompson
         ~state:(fun () -> Builder.add_state b)
         ~eps:(Builder.add_eps b) ~chars:(Builder.add_chars b) ~mark ())
      formula ()
  in
  Builder.finish b ~initial:entry ~finals:[ exit_ ] ~vars:(Regex_formula.vars formula)

let of_regex r = of_formula (Regex_formula.of_regex r)

(* ------------------------------------------------------------------ *)
(* Language operations                                                 *)

let embed b v =
  let offset =
    let o = ref None in
    for _ = 1 to v.n do
      let q = Builder.add_state b in
      if !o = None then o := Some q
    done;
    Option.value ~default:0 !o
  in
  Array.iteri
    (fun q arcs ->
      List.iter
        (fun (label, dst) -> Builder.add_label b (q + offset) label (dst + offset))
        arcs)
    v.trans;
  offset

let union a c =
  let b = Builder.create () in
  let start = Builder.add_state b in
  let oa = embed b a and oc = embed b c in
  Builder.add_eps b start (a.initial + oa);
  Builder.add_eps b start (c.initial + oc);
  let finals = List.map (( + ) oa) (finals a) @ List.map (( + ) oc) (finals c) in
  Builder.finish b ~initial:start ~finals ~vars:(Variable.Set.union a.vars c.vars)

let project keep v =
  let keep = Variable.Set.inter keep v.vars in
  let trans =
    Array.map
      (List.map (fun (label, dst) ->
           match label with
           | Mark m when not (Variable.Set.mem (Marker.variable m) keep) -> (Eps, dst)
           | Eps | Chars _ | Mark _ -> (label, dst)))
      v.trans
  in
  { v with trans; vars = keep }

(* ------------------------------------------------------------------ *)
(* Direct membership over the extended alphabet                        *)

let accepts_marked v w =
  let eps_closure set =
    Bitset.close set (fun q visit ->
        List.iter (fun (label, dst) -> if label = Eps then visit dst) v.trans.(q))
  in
  let current = ref (eps_closure (Bitset.of_list v.n [ v.initial ])) in
  Array.iter
    (fun item ->
      let next = Bitset.create v.n in
      Bitset.iter
        (fun q ->
          List.iter
            (fun (label, dst) ->
              match (item, label) with
              | Ref_word.Char c, Chars cs when Charset.mem cs c -> Bitset.add next dst
              | Ref_word.Mark m, Mark m' when Marker.equal m m' -> Bitset.add next dst
              | (Ref_word.Char _ | Ref_word.Mark _), (Eps | Chars _ | Mark _) -> ())
            v.trans.(q))
        !current;
      current := eps_closure next)
    w;
  Bitset.fold (fun q acc -> acc || is_final v q) !current false

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)

module Config = struct
  type t = state * Variable.Set.t * Variable.Set.t (* state, opened, closed *)

  let compare = Stdlib.compare
end

module Config_set = Set.Make (Config)

let soundness v =
  let exception Unsound of string in
  (* Explore (state, opened, closed) configurations; marker discipline
     violations reachable on a path to acceptance make the automaton
     unsound.  We do not trim first: a violation on a non-accepting
     path is harmless, so acceptance-reachability is checked on the
     fly by only reporting violations that are co-reachable.  For
     simplicity we over-approximate co-reachability by plain graph
     co-reachability (exact for violation *transitions* because the
     suffix discipline can only forbid, never enable). *)
  let coreach =
    Bitset.close (Bitset.copy v.final_set)
      (Bitset.reverse v.n (fun q visit -> List.iter (fun (_, dst) -> visit dst) v.trans.(q)))
  in
  try
    let seen = ref Config_set.empty in
    let all_functional = ref true in
    let rec explore ((q, opened, closed) as config) =
      if (not (Config_set.mem config !seen)) && Bitset.mem coreach q then begin
        seen := Config_set.add config !seen;
        if is_final v q then
          if not (Variable.Set.equal closed v.vars) then all_functional := false;
        List.iter
          (fun (label, dst) ->
            match label with
            | Eps | Chars _ -> explore (dst, opened, closed)
            | Mark (Marker.Open x) when Bitset.mem coreach dst ->
                if Variable.Set.mem x opened then
                  raise
                    (Unsound (Printf.sprintf "⊢%s reachable twice on a path" (Variable.name x)))
                else explore (dst, Variable.Set.add x opened, closed)
            | Mark (Marker.Close x) when Bitset.mem coreach dst ->
                if not (Variable.Set.mem x opened) then
                  raise (Unsound (Printf.sprintf "⊣%s before ⊢%s" (Variable.name x) (Variable.name x)))
                else if Variable.Set.mem x closed then
                  raise
                    (Unsound (Printf.sprintf "⊣%s reachable twice on a path" (Variable.name x)))
                else explore (dst, opened, Variable.Set.add x closed)
            | Mark _ -> ())
          v.trans.(q)
      end
    in
    explore (v.initial, Variable.Set.empty, Variable.Set.empty);
    (* A final configuration with an open-but-unclosed variable is also
       unsound (the word has ⊢x but no ⊣x). *)
    Config_set.iter
      (fun (q, opened, closed) ->
        if is_final v q && not (Variable.Set.is_empty (Variable.Set.diff opened closed)) then
          raise
            (Unsound
               (Printf.sprintf "⊢%s can reach acceptance unclosed"
                  (Variable.name (Variable.Set.choose (Variable.Set.diff opened closed))))))
      !seen;
    Ok !all_functional
  with Unsound reason -> Error reason
