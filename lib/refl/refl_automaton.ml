open Spanner_core
module Charset = Spanner_fa.Charset
module Bitset = Spanner_util.Bitset
module Vec = Spanner_util.Vec

type state = int

type label = Eps | Chars of Charset.t | Mark of Marker.t | Ref of Variable.t

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

  let add b src label dst = Vec.set b.btrans src ((label, dst) :: Vec.get b.btrans src)

  let finish b ~initial ~finals ~vars =
    let final_set = Bitset.create (max b.count 1) in
    List.iter (Bitset.add final_set) finals;
    { n = b.count; initial; final_set; trans = Vec.to_array b.btrans; vars }
end

let size a = a.n

let initial a = a.initial

let finals a = Bitset.elements a.final_set

let is_final a q = Bitset.mem a.final_set q

let vars a = a.vars

let iter_transitions a q f = List.iter (fun (label, dst) -> f label dst) a.trans.(q)

let of_regex r =
  let b = Builder.create () in
  let arc label src dst = Builder.add b src label dst in
  let mark src ~opening x dst =
    let x = Variable.of_string x in
    arc (Mark (if opening then Marker.Open x else Marker.Close x)) src dst
  in
  let entry, exit_ =
    Refl_regex.fold
      (Spanner_fa.Regex.thompson
         ~state:(fun () -> Builder.add_state b)
         ~eps:(arc Eps)
         ~chars:(fun src cs -> arc (Chars cs) src)
         ~mark
         ~reference:(fun src x -> arc (Ref (Variable.of_string x)) src)
         ())
      r ()
  in
  Builder.finish b ~initial:entry ~finals:[ exit_ ] ~vars:(Refl_regex.vars r)

(* ------------------------------------------------------------------ *)
(* Reachability helpers                                                *)

let successors a q visit = List.iter (fun (_, dst) -> visit dst) a.trans.(q)

let coreachable a = Bitset.close (Bitset.copy a.final_set) (Bitset.reverse a.n (successors a))

let reachable a = Bitset.close (Bitset.of_list (max a.n 1) [ a.initial ]) (successors a)

let useful a = Bitset.inter (reachable a) (coreachable a)

(* ------------------------------------------------------------------ *)
(* Soundness                                                           *)

module Config = struct
  type t = state * Variable.Set.t * Variable.Set.t

  let compare = Stdlib.compare
end

module Config_set = Set.Make (Config)

let soundness a =
  let exception Unsound of string in
  let live = useful a in
  try
    let seen = ref Config_set.empty in
    let rec explore ((q, opened, closed) as config) =
      if (not (Config_set.mem config !seen)) && Bitset.mem live q then begin
        seen := Config_set.add config !seen;
        List.iter
          (fun (label, dst) ->
            if Bitset.mem live dst then
              match label with
              | Eps | Chars _ -> explore (dst, opened, closed)
              | Ref x ->
                  if not (Variable.Set.mem x closed) then
                    raise
                      (Unsound
                         (Printf.sprintf "reference to %s reachable before ⊣%s" (Variable.name x)
                            (Variable.name x)))
                  else explore (dst, opened, closed)
              | Mark (Marker.Open x) ->
                  if Variable.Set.mem x opened then
                    raise (Unsound (Printf.sprintf "⊢%s reachable twice" (Variable.name x)))
                  else explore (dst, Variable.Set.add x opened, closed)
              | Mark (Marker.Close x) ->
                  if not (Variable.Set.mem x opened) then
                    raise
                      (Unsound (Printf.sprintf "⊣%s before ⊢%s" (Variable.name x) (Variable.name x)))
                  else if Variable.Set.mem x closed then
                    raise (Unsound (Printf.sprintf "⊣%s reachable twice" (Variable.name x)))
                  else explore (dst, opened, Variable.Set.add x closed))
          a.trans.(q)
      end
    in
    explore (a.initial, Variable.Set.empty, Variable.Set.empty);
    Config_set.iter
      (fun (q, opened, closed) ->
        if is_final a q && not (Variable.Set.is_empty (Variable.Set.diff opened closed)) then
          raise
            (Unsound
               (Printf.sprintf "⊢%s can reach acceptance unclosed"
                  (Variable.name (Variable.Set.choose (Variable.Set.diff opened closed))))))
      !seen;
    Ok ()
  with Unsound reason -> Error reason

(* ------------------------------------------------------------------ *)
(* Reference boundedness (§3.2)                                        *)

(* Tarjan SCCs restricted to useful states. *)
let sccs a live =
  let index = Array.make (max a.n 1) (-1) in
  let lowlink = Array.make (max a.n 1) 0 in
  let on_stack = Array.make (max a.n 1) false in
  let comp = Array.make (max a.n 1) (-1) in
  let stack = ref [] in
  let counter = ref 0 in
  let ncomp = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (_, w) ->
        if Bitset.mem live w then
          if index.(w) < 0 then begin
            strongconnect w;
            lowlink.(v) <- min lowlink.(v) lowlink.(w)
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      a.trans.(v);
    if lowlink.(v) = index.(v) then begin
      let c = !ncomp in
      incr ncomp;
      let rec popall () =
        match !stack with
        | [] -> ()
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            comp.(w) <- c;
            if w <> v then popall ()
      in
      popall ()
    end
  in
  Bitset.iter (fun v -> if index.(v) < 0 then strongconnect v) live;
  (comp, !ncomp)

let reference_bounded a =
  let live = useful a in
  let comp, _ = sccs a live in
  let bounded = ref true in
  Bitset.iter
    (fun q ->
      List.iter
        (fun (label, dst) ->
          match label with
          | Ref _ when Bitset.mem live dst && comp.(q) = comp.(dst) -> bounded := false
          | Ref _ | Eps | Chars _ | Mark _ -> ())
        a.trans.(q))
    live;
  !bounded

let max_ref_counts a =
  if not (reference_bounded a) then
    invalid_arg "Refl_automaton.max_ref_counts: not reference-bounded";
  let live = useful a in
  let comp, ncomp = sccs a live in
  let result = ref Variable.Map.empty in
  let count_for x =
    (* Longest path in the condensation, edge weight 1 on Ref-x arcs.
       Tarjan numbers components in reverse topological order, so
       iterating components 0..ncomp-1 processes successors first. *)
    let best = Array.make (max ncomp 1) min_int in
    Bitset.iter
      (fun q -> if is_final a q then best.(comp.(q)) <- max best.(comp.(q)) 0)
      a.final_set;
    (* Components must be processed in topological order of the DAG;
       Tarjan assigns component ids such that every edge goes from a
       higher id to a lower or equal id is NOT guaranteed in general,
       but for Tarjan it is: comp(u) >= comp(v) for an edge u→v.
       So process component ids ascending (sinks first). *)
    let nodes_by_comp = Array.make (max ncomp 1) [] in
    Bitset.iter (fun q -> nodes_by_comp.(comp.(q)) <- q :: nodes_by_comp.(comp.(q))) live;
    for c = 0 to ncomp - 1 do
      (* Relax intra-component first via iteration to fixpoint (cheap:
         intra edges have weight 0 and share the same best value), then
         outgoing edges. *)
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun q ->
            List.iter
              (fun (label, dst) ->
                if Bitset.mem live dst then begin
                  let w = match label with Ref y when Variable.equal x y -> 1 | _ -> 0 in
                  let cand =
                    if best.(comp.(dst)) = min_int then min_int else best.(comp.(dst)) + w
                  in
                  if cand > best.(c) && comp.(q) = c then begin
                    best.(c) <- cand;
                    changed := true
                  end
                end)
              a.trans.(q))
          nodes_by_comp.(c)
      done
    done;
    if Bitset.mem live a.initial && best.(comp.(a.initial)) > min_int then
      best.(comp.(a.initial))
    else 0
  in
  Variable.Set.iter (fun x -> result := Variable.Map.add x (count_for x) !result) a.vars;
  !result
