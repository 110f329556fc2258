module Bitset = Spanner_util.Bitset
module Bitmatrix = Spanner_util.Bitmatrix
module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits

(* ------------------------------------------------------------------ *)
(* The compiled automaton                                              *)

type t = {
  a : Evset.interned;
  vars : Variable.Set.t;
  (* [a] is the subset construction's automaton: every tuple has exactly
     one accepting run.  [false]: the automaton as built, whose subset
     construction needed more states than it has. *)
  determinized : bool;
}

let of_evset ?(limits = Limits.none) e =
  let g = Limits.start limits in
  let nstates = Evset.size e in
  Limits.check_states g nstates;
  let as_built = Evset.intern g e in
  let vars = Evset.vars e in
  (* The cap keeps the shipped automaton no larger than the one built:
     a blow-up costs at most [nstates] subsets before falling back. *)
  match Evset.determinize_interned g ~cap:nstates as_built with
  | Some dfa -> { a = dfa; vars; determinized = true }
  | None -> { a = as_built; vars; determinized = false }

let of_formula ?limits f = of_evset ?limits (Evset.of_formula ?limits f)

let vars ct = ct.vars
let states ct = ct.a.states
let classes ct = ct.a.nclasses
let is_deterministic ct = ct.determinized

let describe ct =
  let form =
    if ct.determinized then "deterministic"
    else Printf.sprintf "nondeterministic, as built: determinizing needs over %d states" ct.a.states
  in
  Printf.sprintf "%d states (%s), %d byte classes, %d marker-set labels" ct.a.states form
    ct.a.nclasses (Array.length ct.a.labels)

let initial ct = ct.a.start
let is_final_state ct q = ct.a.accepting.(q)

let rec iter_row f = function
  | [] -> ()
  | (lbl, dst) :: rest ->
      f lbl dst;
      iter_row f rest

let iter_set_arcs ct q f = iter_row f ct.a.set_rows.(q)

let ending_states ct =
  let ends = Bitset.create ct.a.states in
  for q = 0 to ct.a.states - 1 do
    if ct.a.accepting.(q) then Bitset.add ends q
    else iter_set_arcs ct q (fun _ q' -> if ct.a.accepting.(q') then Bitset.add ends q)
  done;
  ends

(* Pick lists are (0-based boundary, label id), decoded through the
   interned marker-set alphabet; every engine's runs end up here. *)
let tuple_of_picks ct picks extra =
  let opens = Hashtbl.create 4 in
  let tuple = ref Span_tuple.empty in
  let apply (boundary, lbl) =
    Marker.Set.iter
      (function
        | Marker.Open x -> Hashtbl.replace opens x (boundary + 1)
        | Marker.Close x ->
            let left = Option.value ~default:(boundary + 1) (Hashtbl.find_opt opens x) in
            tuple := Span_tuple.bind !tuple x (Span.make left (boundary + 1)))
      ct.a.labels.(lbl)
  in
  Vec.iter apply picks;
  (match extra with Some pick -> apply pick | None -> ());
  !tuple

(* ------------------------------------------------------------------ *)
(* Per-factor transition summaries: the state→state behaviour of the
   automaton over one derived factor, composable along SLP
   concatenation nodes (§4.2/§4.3).  [pure] relates p to q when some
   run over the factor reads only letters; [mixed] when some run also
   takes ≥ 1 set arc.  At most one set arc precedes each letter (the
   normal form every engine here assumes), so a terminal's mixed
   matrix is one set step followed by the letter step.                 *)

type summary = { pure : Bitmatrix.t; mixed : Bitmatrix.t }

let class_of_char ct c = ct.a.class_of.(Char.code c)

let class_matrix ct cls =
  let a = ct.a in
  if cls < 0 || cls >= a.nclasses then invalid_arg "Compiled.class_matrix: no such byte class";
  let m = Bitmatrix.create a.states in
  for q = 0 to a.states - 1 do
    List.iter (Bitmatrix.set m q) a.cells.((q * a.nclasses) + cls)
  done;
  m

let letter_matrix ct c = class_matrix ct (class_of_char ct c)

let set_step_matrix ct =
  let m = Bitmatrix.create ct.a.states in
  for q = 0 to ct.a.states - 1 do
    iter_set_arcs ct q (fun _ dst -> Bitmatrix.set m q dst)
  done;
  m

let summary_of_terminal ct c =
  let pure = letter_matrix ct c in
  { pure; mixed = Bitmatrix.mul (set_step_matrix ct) pure }

let summary_compose l r =
  {
    pure = Bitmatrix.mul l.pure r.pure;
    mixed =
      Bitmatrix.union
        (Bitmatrix.mul l.mixed (Bitmatrix.union r.pure r.mixed))
        (Bitmatrix.mul l.pure r.mixed);
  }

(* ------------------------------------------------------------------ *)
(* Per-document preprocessing: the trimmed product DAG                 *)

type node = {
  boundary : int;
  mutable actions : action list;
  mutable useful : bool;
  mutable jump : node; (* deepest markerless descendant chain entry *)
  mutable count : int; (* number of accepting runs through this node *)
}

and action =
  | Eof_empty
  | Eof_set of int (* label id *)
  | Edge of int * int * node (* boundary, label id, target *)
  | Skip of node

type prepared = {
  ct : t;
  doc_len : int;
  root : node option;
  node_count : int; (* useful nodes, recorded at prepare time *)
  edge_count : int; (* useful actions, recorded at prepare time *)
}

type stats = { nodes : int; edges : int; boundaries : int }

(* Backward pass over boundaries: usefulness, trimming, path counts and
   jump pointers.  Nodes were discovered in boundary order, so the
   reversed discovery list ([all], head = last discovered) is a valid
   topological order.  Useful node/edge counts are accumulated here so
   [stats] is O(1). *)
let trim_and_pack ct n root all =
  let node_count = ref 0 and edge_count = ref 0 in
  List.iter
    (fun node ->
      let keep action =
        match action with
        | Eof_empty | Eof_set _ -> true
        | Edge (_, _, t) | Skip t -> t.useful
      in
      node.actions <- List.filter keep node.actions;
      node.useful <- node.actions <> [];
      if node.useful then begin
        incr node_count;
        edge_count := !edge_count + List.length node.actions
      end;
      node.count <-
        List.fold_left
          (fun acc action ->
            acc + match action with Eof_empty | Eof_set _ -> 1 | Edge (_, _, t) | Skip t -> t.count)
          0 node.actions;
      node.jump <- (match node.actions with [ Skip t ] -> t.jump | _ -> node))
    all;
  {
    ct;
    doc_len = n;
    root = (if root.useful then Some root.jump else None);
    node_count = !node_count;
    edge_count = !edge_count;
  }

let fresh_node boundary =
  let rec node = { boundary; actions = []; useful = false; jump = node; count = 0 } in
  node

let no_node = fresh_node (-1)

(* The product of the document and the automaton's subsets, one layer
   per boundary, over one subset table ({!Evset.subsets}): a node's set
   arcs, letter successors and acceptance are the table's rows of its
   subset.  Layer i+1 is built while layer i drains, in FIFO order, so
   the latest node made for a subset, whose boundary stamps its layer,
   is the only one a lookup can want.  Each node lists its edges by
   label in reverse first-discovery order, then the skip; that order is
   the enumeration order. *)
let prepare_gauge g ct doc =
  let n = String.length doc in
  let table = Evset.subsets ct.a in
  let latest = ref (Array.make 16 no_node) in
  let worklist = Queue.create () in
  let node_at boundary s =
    if s >= Array.length !latest then
      latest := Array.append !latest (Array.make (max (s + 1) (Array.length !latest)) no_node);
    let node = !latest.(s) in
    if node.boundary = boundary then node
    else begin
      let node = fresh_node boundary in
      !latest.(s) <- node;
      Queue.add (node, s) worklist;
      node
    end
  in
  let root = node_at 0 0 in
  let all = ref [] in
  while not (Queue.is_empty worklist) do
    Limits.check g;
    let node, s = Queue.take worklist in
    all := node :: !all;
    let i = node.boundary in
    let row = Evset.set_row table s in
    if i = n then
      node.actions <-
        List.fold_left
          (fun acc (lbl, t) -> if Evset.accepts table t then Eof_set lbl :: acc else acc)
          (if Evset.accepts table s then [ Eof_empty ] else [])
          row
    else begin
      let cls = ct.a.class_of.(Char.code (String.unsafe_get doc i)) in
      let skip =
        match Evset.step table s cls with -1 -> [] | s' -> [ Skip (node_at (i + 1) s') ]
      in
      node.actions <-
        List.fold_left
          (fun acc (lbl, t) ->
            match Evset.step table t cls with
            | -1 -> acc
            | t' -> Edge (i, lbl, node_at (i + 1) t') :: acc)
          skip row
    end
  done;
  trim_and_pack ct n root !all

let prepare ?(limits = Limits.none) ct doc = prepare_gauge (Limits.start limits) ct doc

let stats p = { nodes = p.node_count; edges = p.edge_count; boundaries = p.doc_len + 1 }

let cardinal p = match p.root with None -> 0 | Some root -> root.count

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

type cursor = {
  mutable frames : (action list * int) list; (* unexplored siblings, picks length *)
  picks : (int * int) Vec.t; (* boundary, label id *)
  mutable current : action list;
  prepared : prepared;
}

let cursor p =
  {
    frames = [];
    picks = Vec.create ();
    current = (match p.root with None -> [] | Some root -> root.actions);
    prepared = p;
  }

let rec next cur =
  match cur.current with
  | [] -> (
      match cur.frames with
      | [] -> None
      | (actions, plen) :: rest ->
          cur.frames <- rest;
          Vec.truncate cur.picks plen;
          cur.current <- actions;
          next cur)
  | action :: rest -> (
      if rest <> [] then cur.frames <- (rest, Vec.length cur.picks) :: cur.frames;
      cur.current <- [];
      let ct = cur.prepared.ct in
      match action with
      | Eof_empty -> Some (tuple_of_picks ct cur.picks None)
      | Eof_set lbl -> Some (tuple_of_picks ct cur.picks (Some (cur.prepared.doc_len, lbl)))
      | Edge (i, lbl, t) ->
          ignore (Vec.push cur.picks (i, lbl));
          cur.current <- t.jump.actions;
          next cur
      | Skip t ->
          cur.current <- t.jump.actions;
          next cur)

(* ------------------------------------------------------------------ *)
(* Whole-document evaluation                                           *)

(* One gauge spans both phases: preprocessing and output collection
   draw from the same fuel, and the tuple cap applies to the collected
   relation. *)
let prepare_with_gauge = prepare_gauge
let cursor_next = next
let prepared_vars p = p.ct.vars

let eval ?(limits = Limits.none) ct doc =
  let g = Limits.start limits in
  let p = prepare_gauge g ct doc in
  let cur = cursor p in
  let rec drain r count =
    match next cur with
    | None -> r
    | Some t ->
        Limits.check g;
        Limits.check_tuples g (count + 1);
        drain (Span_relation.add r t) (count + 1)
  in
  drain (Span_relation.empty p.ct.vars) 0
