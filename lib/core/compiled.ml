module Wordrel = Spanner_util.Wordrel
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
  (* Per label, its markers in marker-set order, each as [2·x] (open)
     or [2·x + 1] (close) for the variable [var_at.(x)]: tuple decoding
     reads these instead of the marker sets. *)
  marks : int array array;
  var_at : Variable.t array;
}

let decoding (labels : Marker.Set.t array) =
  let vars = ref [] in
  Array.iter
    (Marker.Set.iter (fun m ->
         let x = Marker.variable m in
         if not (List.exists (Variable.equal x) !vars) then vars := x :: !vars))
    labels;
  let var_at = Array.of_list (List.rev !vars) in
  let index x =
    let rec find i = if Variable.equal var_at.(i) x then i else find (i + 1) in
    find 0
  in
  let code m = (2 * index (Marker.variable m)) + if Marker.is_open m then 0 else 1 in
  (Array.map (fun l -> Array.of_list (List.map code (Marker.Set.elements l))) labels, var_at)

let of_evset ?(limits = Limits.none) e =
  let g = Limits.start limits in
  let nstates = Evset.size e in
  Limits.check_states g nstates;
  let as_built = Evset.intern g e in
  let vars = Evset.vars e in
  (* The cap keeps the shipped automaton no larger than the one built:
     a blow-up costs at most [nstates] subsets before falling back. *)
  let a, determinized =
    match Evset.determinize_interned g ~cap:nstates as_built with
    | Some dfa -> (dfa, true)
    | None -> (as_built, false)
  in
  let marks, var_at = decoding a.labels in
  { a; vars; determinized; marks; var_at }

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

let rec iter_row f = function
  | [] -> ()
  | (lbl, dst) :: rest ->
      f lbl dst;
      iter_row f rest

let iter_set_arcs ct q f = iter_row f ct.a.set_rows.(q)

let ending_states ct =
  Wordrel.row ~states:ct.a.states (fun q ->
      ct.a.accepting.(q) || List.exists (fun (_, q') -> ct.a.accepting.(q')) ct.a.set_rows.(q))

let endings ct q =
  List.fold_left
    (fun acc (lbl, q') -> if ct.a.accepting.(q') then lbl :: acc else acc)
    (if ct.a.accepting.(q) then [ -1 ] else [])
    ct.a.set_rows.(q)

(* ------------------------------------------------------------------ *)
(* Picks and tuple decoding                                            *)

(* A run's set arcs as two int columns, (0-based boundary, label id),
   plus the decoder's per-variable scratch: pushing a pick allocates
   nothing, so a cursor allocates only the tuples it returns. *)
type picks = {
  mutable at : int array;
  mutable lbl : int array;
  mutable len : int;
  opens : int array;  (* per variable: the open position of the tuple under decoding *)
}

let picks ct =
  { at = Array.make 16 0; lbl = Array.make 16 0; len = 0; opens = Array.make (Array.length ct.var_at) 0 }

let picks_length pk = pk.len
let truncate_picks pk k = pk.len <- k

let push_pick pk boundary lbl =
  if pk.len = Array.length pk.at then begin
    let grow a = Array.append a (Array.make pk.len 0) in
    pk.at <- grow pk.at;
    pk.lbl <- grow pk.lbl
  end;
  pk.at.(pk.len) <- boundary;
  pk.lbl.(pk.len) <- lbl;
  pk.len <- pk.len + 1

(* Every engine's runs end up here: markers apply in pick order, each
   label's in marker-set order, and a close with no open before it
   makes an empty span. *)
let tuple_of_picks ct pk last_at last_lbl =
  Array.fill pk.opens 0 (Array.length pk.opens) (-1);
  let tuple = ref Span_tuple.empty in
  let apply boundary lbl =
    let marks = ct.marks.(lbl) in
    for i = 0 to Array.length marks - 1 do
      let code = marks.(i) in
      let x = code lsr 1 in
      if code land 1 = 0 then pk.opens.(x) <- boundary + 1
      else begin
        let left = if pk.opens.(x) < 0 then boundary + 1 else pk.opens.(x) in
        tuple := Span_tuple.bind !tuple ct.var_at.(x) (Span.make left (boundary + 1))
      end
    done
  in
  for i = 0 to pk.len - 1 do
    apply pk.at.(i) pk.lbl.(i)
  done;
  if last_lbl >= 0 then apply last_at last_lbl;
  !tuple

(* ------------------------------------------------------------------ *)
(* Per-factor transition summaries: the state→state behaviour of the
   automaton over one derived factor, composable along SLP
   concatenation nodes (§4.2/§4.3), as blocks of a {!Wordrel} slab.
   Pure relates p to q when some run over the factor reads only
   letters; mixed when some run also takes ≥ 1 set arc.  At most one
   set arc precedes each letter (the normal form every engine here
   assumes), so a one-letter factor's mixed relation is one set step
   followed by the letter step.                                         *)

let class_of_char ct c = ct.a.class_of.(Char.code c)

let summaries ct k = Wordrel.create ~states:ct.a.states ~functional:ct.determinized k

let add_class_summary ct rel cls =
  let a = ct.a in
  if cls < 0 || cls >= a.nclasses then invalid_arg "Compiled.add_class_summary: no such byte class";
  let s = Wordrel.alloc rel in
  for p = 0 to a.states - 1 do
    List.iter (Wordrel.set_pure rel s p) a.cells.((p * a.nclasses) + cls);
    iter_set_arcs ct p (fun _ p' ->
        List.iter (Wordrel.set_mixed rel s p) a.cells.((p' * a.nclasses) + cls))
  done;
  Wordrel.seal rel s;
  s

(* ------------------------------------------------------------------ *)
(* Per-document preprocessing: the trimmed product DAG                 *)

(* The DAG is int columns.  Node [v] (numbered in discovery order, the
   root is 0) has boundary [bound.(v)]; its actions are [label] and
   [target] at indices [first.(v)] .. [first.(v + 1) - 1].  An
   action's kind is which of the two it sets: an edge (label, target),
   a skip (-1, target), an end with a trailing set arc (label, -1), or a
   plain end (-1, -1).  Targets are stored already resolved through
   their jump pointers. *)
type prepared = {
  ct : t;
  doc_len : int;
  root : int;  (* the root's jump target, or -1 when there is no tuple *)
  bound : int array;
  first : int array;
  label : int array;
  target : int array;
  total : int;  (* accepting paths, or -1 past [max_int] *)
  node_count : int;  (* useful nodes, recorded at prepare time *)
  edge_count : int;  (* useful actions, recorded at prepare time *)
}

type stats = { nodes : int; edges : int; boundaries : int }

(* A growable int column. *)
type column = { mutable cells : int array; mutable size : int }

let column k = { cells = Array.make k 0; size = 0 }

let push c x =
  if c.size = Array.length c.cells then begin
    let cells = Array.make (2 * c.size) 0 in
    Array.blit c.cells 0 cells 0 c.size;
    c.cells <- cells
  end;
  c.cells.(c.size) <- x;
  c.size <- c.size + 1

(* Path counts saturate at -1: the count of a long document can pass
   [max_int], and preparing must not fail for it (enumeration does not
   need the count). *)
let count_add a b =
  if a < 0 || b < 0 then -1
  else
    let s = a + b in
    if s < 0 then -1 else s

(* The product of the document and the automaton's subsets, one layer
   per boundary, over one subset table ({!Evset.subsets}): a node's set
   arcs, letter successors and acceptance are the table's rows of its
   subset, each computed once per document.
   Nodes are numbered as discovered and processed in that order, so the
   node index is the FIFO: layer i+1 is built while layer i drains, and
   the latest node made for a subset, whose boundary stamps its layer,
   is the only one a lookup can want.  Each node lists its edges by
   label in reverse first-discovery order, then the skip; at the last
   boundary, its trailing set arcs in reverse, then the plain end.  That
   order is the enumeration order. *)
let prepare_gauge g ct doc =
  let n = String.length doc in
  let table = Evset.subsets ct.a in
  (* most automata keep a node or two alive per boundary *)
  let k = min (n + 2) 65536 in
  let bound = column k and subset = column k and first = column k in
  let label = column k and target = column k in
  let latest = ref (Array.make 16 (-1)) in
  let node_at boundary s =
    if s >= Array.length !latest then
      latest := Array.append !latest (Array.make (max (s + 1) (Array.length !latest)) (-1));
    let v = !latest.(s) in
    if v >= 0 && bound.cells.(v) = boundary then v
    else begin
      let v = bound.size in
      push bound boundary;
      push subset s;
      !latest.(s) <- v;
      v
    end
  in
  let action lbl t =
    push label lbl;
    push target t
  in
  ignore (node_at 0 0);
  let found = ref (Array.make 8 0) in
  let v = ref 0 in
  while !v < bound.size do
    Limits.check g;
    let i = bound.cells.(!v) and s = subset.cells.(!v) in
    push first label.size;
    let r = Evset.set_row table s in
    let arcs = Array.length r / 2 in
    if i = n then begin
      for j = arcs - 1 downto 0 do
        if Evset.accepts table r.((2 * j) + 1) then action r.(2 * j) (-1)
      done;
      if Evset.accepts table s then action (-1) (-1)
    end
    else begin
      let cls = ct.a.class_of.(Char.code (String.unsafe_get doc i)) in
      (* targets are discovered skip first, then labels in row order *)
      let skip = match Evset.step table s cls with -1 -> -1 | s' -> node_at (i + 1) s' in
      if arcs > Array.length !found then found := Array.make arcs 0;
      for j = 0 to arcs - 1 do
        !found.(j) <-
          (match Evset.step table r.((2 * j) + 1) cls with -1 -> -1 | t' -> node_at (i + 1) t')
      done;
      for j = arcs - 1 downto 0 do
        if !found.(j) >= 0 then action r.(2 * j) !found.(j)
      done;
      if skip >= 0 then action (-1) skip
    end;
    incr v
  done;
  push first label.size;
  (* Backward pass: node indices ascend with boundaries, so descending
     indices are a topological order.  Each node keeps the actions whose
     target is useful, with targets resolved through their jumps, and
     counts its paths.  Kept actions are compacted towards the end of
     the action columns, so node [v]'s end up at [first.(v)] ..
     [first.(v + 1) - 1]: a node is useful iff that range is not empty,
     and it jumps to where its one action leads when that is a skip.
     The subset column is spent by now: it holds the path counts. *)
  let nodes = bound.size in
  let lab = label.cells and tgt = target.cells and starts = first.cells in
  let count = subset.cells in
  let useful v = starts.(v) < starts.(v + 1) in
  let jump v =
    let a = starts.(v) in
    if starts.(v + 1) - a = 1 && lab.(a) < 0 && tgt.(a) >= 0 then tgt.(a) else v
  in
  let w = ref label.size and node_count = ref 0 in
  let orig_end = ref label.size in
  for v = nodes - 1 downto 0 do
    let paths = ref 0 and orig_start = starts.(v) in
    for a = !orig_end - 1 downto orig_start do
      let t = tgt.(a) in
      if t < 0 || useful t then begin
        decr w;
        lab.(!w) <- lab.(a);
        tgt.(!w) <- (if t < 0 then -1 else jump t);
        paths := count_add !paths (if t < 0 then 1 else count.(t))
      end
    done;
    starts.(v) <- !w;
    orig_end := orig_start;
    count.(v) <- !paths;
    if useful v then incr node_count
  done;
  let live = useful 0 in
  {
    ct;
    doc_len = n;
    root = (if live then jump 0 else -1);
    bound = bound.cells;
    first = starts;
    label = lab;
    target = tgt;
    total = (if live then count.(0) else 0);
    node_count = !node_count;
    edge_count = label.size - !w;
  }

let prepare ?(limits = Limits.none) ct doc = prepare_gauge (Limits.start limits) ct doc

let stats p = { nodes = p.node_count; edges = p.edge_count; boundaries = p.doc_len + 1 }

let cardinal p =
  if p.total < 0 then
    Limits.eval_failure ~what:"cardinal"
      (Printf.sprintf "the number of result tuples exceeds max_int (%d)" max_int)
  else p.total

(* ------------------------------------------------------------------ *)
(* Enumeration                                                         *)

(* The walk is over action indices: [next_a .. end_a - 1] are the
   unexplored actions of the node under exploration, whose boundary is
   [at].  A frame saves the siblings left behind (next, end, boundary)
   and the pick count to restore, four ints of [frames]. *)
type cursor = {
  prepared : prepared;
  pk : picks;
  mutable frames : int array;
  mutable depth : int;
  mutable next_a : int;
  mutable end_a : int;
  mutable at : int;
}

let enter cur v =
  let p = cur.prepared in
  cur.next_a <- p.first.(v);
  cur.end_a <- p.first.(v + 1);
  cur.at <- p.bound.(v)

let cursor p =
  let cur =
    { prepared = p; pk = picks p.ct; frames = Array.make 64 0; depth = 0; next_a = 0; end_a = 0; at = 0 }
  in
  if p.root >= 0 then enter cur p.root;
  cur

let save cur =
  let f = 4 * cur.depth in
  if f + 4 > Array.length cur.frames then
    cur.frames <- Array.append cur.frames (Array.make (Array.length cur.frames) 0);
  cur.frames.(f) <- cur.next_a + 1;
  cur.frames.(f + 1) <- cur.end_a;
  cur.frames.(f + 2) <- cur.at;
  cur.frames.(f + 3) <- picks_length cur.pk;
  cur.depth <- cur.depth + 1

let rec next cur =
  if cur.next_a >= cur.end_a then begin
    if cur.depth = 0 then None
    else begin
      cur.depth <- cur.depth - 1;
      let f = 4 * cur.depth in
      cur.next_a <- cur.frames.(f);
      cur.end_a <- cur.frames.(f + 1);
      cur.at <- cur.frames.(f + 2);
      truncate_picks cur.pk cur.frames.(f + 3);
      next cur
    end
  end
  else begin
    let p = cur.prepared in
    let a = cur.next_a in
    if a + 1 < cur.end_a then save cur;
    cur.next_a <- cur.end_a;
    let lbl = p.label.(a) and t = p.target.(a) in
    if t < 0 then Some (tuple_of_picks p.ct cur.pk p.doc_len lbl)
    else begin
      if lbl >= 0 then push_pick cur.pk cur.at lbl;
      enter cur t;
      next cur
    end
  end

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
