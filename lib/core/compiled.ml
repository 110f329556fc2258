module Bitset = Spanner_util.Bitset
module Bitmatrix = Spanner_util.Bitmatrix
module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits

(* ------------------------------------------------------------------ *)
(* Compiled tables                                                     *)

type t = {
  nstates : int;
  initial : int;
  final : bool array; (* nstates *)
  vars : Variable.Set.t;
  labels : Marker.Set.t array; (* label id -> marker set (non-empty) *)
  nclasses : int;
  class_of : int array; (* 256: byte -> byte class *)
  (* The tables hold the subset construction's automaton: every tuple
     has exactly one accepting run.  [false]: the automaton as built,
     whose subset construction needed more states than it has. *)
  determinized : bool;
  (* Letter arcs.  [letter_det] is the dense table (state × class ->
     target or -1) when the automaton has at most one successor per
     state and byte; otherwise [letter_off]/[letter_dst] hold the CSR
     adjacency over (state × class) cells. *)
  deterministic : bool;
  letter_det : int array; (* nstates × nclasses, or empty *)
  letter_off : int array; (* nstates × nclasses + 1 *)
  letter_dst : int array;
  (* Set arcs, CSR over states. *)
  set_off : int array; (* nstates + 1 *)
  set_lbl : int array;
  set_dst : int array;
  (* Small-automaton fast path: when every state fits in one machine
     word, subsets are plain int bitmasks and the per-document pass is
     integer arithmetic only.  [succ_mask] folds each (state, class)
     letter cell into the mask of its successors, so a subset image is
     an or-loop over set bits — no per-arc work at all. *)
  small : bool; (* nstates <= Sys.int_size *)
  final_mask : int;
  succ_mask : int array; (* nstates × nclasses, or empty *)
  set_dst_bit : int array; (* 1 lsl set_dst, or empty *)
}

(* The flat tables of [t] for [a]. *)
let tables ~vars ~determinized (a : Evset.interned) =
  let nstates = a.states and nclasses = a.nclasses in
  let set_rows = a.set_rows and cells = a.cells in
  let set_off = Array.make (nstates + 1) 0 in
  for q = 0 to nstates - 1 do
    set_off.(q + 1) <- set_off.(q) + List.length set_rows.(q)
  done;
  let set_lbl = Array.make set_off.(nstates) 0 in
  let set_dst = Array.make set_off.(nstates) 0 in
  Array.iteri
    (fun q row ->
      List.iteri
        (fun k (lbl, dst) ->
          set_lbl.(set_off.(q) + k) <- lbl;
          set_dst.(set_off.(q) + k) <- dst)
        row)
    set_rows;
  let ncells = nstates * nclasses in
  let letter_off = Array.make (ncells + 1) 0 in
  for i = 0 to ncells - 1 do
    letter_off.(i + 1) <- letter_off.(i) + List.length cells.(i)
  done;
  let letter_dst = Array.make letter_off.(ncells) 0 in
  Array.iteri
    (fun i dsts -> List.iteri (fun k dst -> letter_dst.(letter_off.(i) + k) <- dst) dsts)
    cells;
  let deterministic = Array.for_all (fun dsts -> List.compare_length_with dsts 1 <= 0) cells in
  let letter_det =
    if deterministic then Array.map (function [ d ] -> d | _ -> -1) cells else [||]
  in
  let small = nstates <= Sys.int_size in
  let final_mask = ref 0 in
  if small then
    for q = 0 to nstates - 1 do
      if a.accepting.(q) then final_mask := !final_mask lor (1 lsl q)
    done;
  let succ_mask =
    if small then
      Array.map (List.fold_left (fun m dst -> m lor (1 lsl dst)) 0) cells
    else [||]
  in
  let set_dst_bit = if small then Array.map (fun dst -> 1 lsl dst) set_dst else [||] in
  {
    nstates;
    initial = a.start;
    final = a.accepting;
    vars;
    labels = a.labels;
    nclasses;
    class_of = a.class_of;
    determinized;
    deterministic;
    letter_det;
    letter_off;
    letter_dst;
    set_off;
    set_lbl;
    set_dst;
    small;
    final_mask = !final_mask;
    succ_mask;
    set_dst_bit;
  }

let of_evset ?(limits = Limits.none) e =
  let g = Limits.start limits in
  let nstates = Evset.size e in
  Limits.check_states g nstates;
  let as_built = Evset.intern g e in
  let tables = tables ~vars:(Evset.vars e) in
  (* The cap keeps the shipped automaton no larger than the one built:
     a blow-up costs at most [nstates] subsets before falling back. *)
  match Evset.determinize_interned g ~cap:nstates as_built with
  | Some dfa -> tables ~determinized:true dfa
  | None -> tables ~determinized:false as_built

let of_formula ?limits f = of_evset ?limits (Evset.of_formula ?limits f)

let vars ct = ct.vars
let states ct = ct.nstates
let classes ct = ct.nclasses
let is_deterministic ct = ct.determinized

let describe ct =
  let form =
    if ct.determinized then "deterministic"
    else Printf.sprintf "nondeterministic, as built: determinizing needs over %d states" ct.nstates
  in
  Printf.sprintf "%d states (%s), %d byte classes, %d marker-set labels" ct.nstates form
    ct.nclasses (Array.length ct.labels)

let is_letter_deterministic ct = ct.deterministic
let initial ct = ct.initial
let is_final_state ct q = ct.final.(q)

let iter_set_arcs ct q f =
  for k = ct.set_off.(q) to ct.set_off.(q + 1) - 1 do
    f ct.set_lbl.(k) ct.set_dst.(k)
  done

let ending_states ct =
  let ends = Bitset.create (max 1 ct.nstates) in
  for q = 0 to ct.nstates - 1 do
    if ct.final.(q) then Bitset.add ends q
    else iter_set_arcs ct q (fun _ q' -> if ct.final.(q') then Bitset.add ends q)
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
      ct.labels.(lbl)
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

let class_of_char ct c = ct.class_of.(Char.code c)

let class_matrix ct cls =
  if cls < 0 || cls >= ct.nclasses then invalid_arg "Compiled.class_matrix: no such byte class";
  let m = Bitmatrix.create ct.nstates in
  if ct.deterministic then
    for q = 0 to ct.nstates - 1 do
      let dst = ct.letter_det.((q * ct.nclasses) + cls) in
      if dst >= 0 then Bitmatrix.set m q dst
    done
  else
    for q = 0 to ct.nstates - 1 do
      let cell = (q * ct.nclasses) + cls in
      for k = ct.letter_off.(cell) to ct.letter_off.(cell + 1) - 1 do
        Bitmatrix.set m q ct.letter_dst.(k)
      done
    done;
  m

let letter_matrix ct c = class_matrix ct (class_of_char ct c)

let set_step_matrix ct =
  let m = Bitmatrix.create ct.nstates in
  for q = 0 to ct.nstates - 1 do
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
(* Per-document preprocessing: the trimmed product DAG, built from the
   compiled tables — array indexing only on the hot path.             *)

type node = {
  id : int;
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
  tables : t;
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
    tables = ct;
    doc_len = n;
    root = (if root.useful then Some root.jump else None);
    node_count = !node_count;
    edge_count = !edge_count;
  }

let fresh_node counter boundary =
  let id = !counter in
  incr counter;
  let rec node = { id; boundary; actions = []; useful = false; jump = node; count = 0 } in
  node

(* Small-automaton document pass: subsets are int bitmasks, interning
   keys on the mask itself, and images are or-loops over [succ_mask].
   Discovery order (states ascending, arcs in CSR order) matches the
   bitset path exactly, so both produce the same enumeration order. *)
let prepare_small g ct doc =
  let n = String.length doc in
  let counter = ref 0 in
  let table : (int, node) Hashtbl.t = Hashtbl.create 64 in
  let table_boundary = ref 0 in
  let worklist = Queue.create () in
  let intern boundary mask =
    if boundary <> !table_boundary then begin
      Hashtbl.reset table;
      table_boundary := boundary
    end;
    match Hashtbl.find_opt table mask with
    | Some node -> node
    | None ->
        let node = fresh_node counter boundary in
        Hashtbl.add table mask node;
        Queue.add (node, mask) worklist;
        node
  in
  let nclasses = ct.nclasses and succ = ct.succ_mask in
  let image mask cls =
    let acc = ref 0 and m = ref mask and q = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then acc := !acc lor succ.((!q * nclasses) + cls);
      m := !m lsr 1;
      incr q
    done;
    !acc
  in
  let nlabels = Array.length ct.labels in
  let label_stamp = Array.make (max 1 nlabels) (-1) in
  let label_acc = Array.make (max 1 nlabels) 0 in
  let generation = ref (-1) in
  let set_labels mask =
    incr generation;
    let g = !generation in
    let found = ref [] in
    let off = ct.set_off and lbls = ct.set_lbl and dbit = ct.set_dst_bit in
    let m = ref mask and q = ref 0 in
    while !m <> 0 do
      if !m land 1 <> 0 then
        for k = off.(!q) to off.(!q + 1) - 1 do
          let lbl = lbls.(k) in
          if label_stamp.(lbl) <> g then begin
            label_stamp.(lbl) <- g;
            label_acc.(lbl) <- 0;
            found := lbl :: !found
          end;
          label_acc.(lbl) <- label_acc.(lbl) lor dbit.(k)
        done;
      m := !m lsr 1;
      incr q
    done;
    !found
  in
  let final_mask = ct.final_mask in
  let root = intern 0 (1 lsl ct.initial) in
  let all = ref [] in
  while not (Queue.is_empty worklist) do
    Limits.check g;
    let node, mask = Queue.take worklist in
    all := node :: !all;
    let i = node.boundary in
    if i = n then begin
      let eofs =
        List.filter_map
          (fun lbl -> if label_acc.(lbl) land final_mask <> 0 then Some (Eof_set lbl) else None)
          (set_labels mask)
      in
      let eofs = if mask land final_mask <> 0 then eofs @ [ Eof_empty ] else eofs in
      node.actions <- eofs
    end
    else begin
      let cls = ct.class_of.(Char.code (String.unsafe_get doc i)) in
      let edges =
        List.filter_map
          (fun lbl ->
            let after = image label_acc.(lbl) cls in
            if after = 0 then None else Some (Edge (i, lbl, intern (i + 1) after)))
          (set_labels mask)
      in
      let skip =
        let after = image mask cls in
        if after = 0 then [] else [ Skip (intern (i + 1) after) ]
      in
      node.actions <- edges @ skip
    end
  done;
  trim_and_pack ct n root !all

(* General document pass for automata too large for one machine word:
   subsets are {!Bitset}s, interned by canonical content key. *)
let prepare_big g ct doc =
  let n = String.length doc in
  let nstates = ct.nstates in
  let counter = ref 0 in
  (* Layered subset interning by canonical bitset key.  Only the layer
     currently being produced (boundary i+1 while boundary i drains,
     in FIFO order) is ever probed, so a single table, reset when the
     boundary advances, covers all layers. *)
  let table : (string, node) Hashtbl.t = Hashtbl.create 64 in
  let table_boundary = ref 0 in
  let worklist = Queue.create () in
  let intern boundary set =
    if boundary <> !table_boundary then begin
      Hashtbl.reset table;
      table_boundary := boundary
    end;
    let k = Bitset.key set in
    match Hashtbl.find_opt table k with
    | Some node -> node
    | None ->
        let node = fresh_node counter boundary in
        Hashtbl.add table k node;
        Queue.add (node, set) worklist;
        node
  in
  (* Letter image of a subset under one byte class. *)
  let image =
    if ct.deterministic then (fun set cls ->
      let next = Bitset.create nstates in
      let det = ct.letter_det and nclasses = ct.nclasses in
      Bitset.iter
        (fun q ->
          let dst = det.((q * nclasses) + cls) in
          if dst >= 0 then Bitset.add next dst)
        set;
      next)
    else fun set cls ->
      let next = Bitset.create nstates in
      let off = ct.letter_off and dsts = ct.letter_dst and nclasses = ct.nclasses in
      Bitset.iter
        (fun q ->
          let cell = (q * nclasses) + cls in
          for k = off.(cell) to off.(cell + 1) - 1 do
            Bitset.add next dsts.(k)
          done)
        set;
      next
  in
  (* Distinct set-arc labels of a subset with their determinised
     targets, grouped through generation-stamped per-label scratch
     slots (no Marker.Set comparisons, no list search).  The returned
     order — reverse first-discovery — fixes the order in which tuples
     are enumerated. *)
  let nlabels = Array.length ct.labels in
  let label_stamp = Array.make (max 1 nlabels) (-1) in
  let label_tgt = Array.make (max 1 nlabels) (Bitset.create 0) in
  let generation = ref (-1) in
  let set_labels set =
    incr generation;
    let g = !generation in
    let found = ref [] in
    let off = ct.set_off and lbls = ct.set_lbl and dsts = ct.set_dst in
    Bitset.iter
      (fun q ->
        for k = off.(q) to off.(q + 1) - 1 do
          let lbl = lbls.(k) in
          if label_stamp.(lbl) <> g then begin
            label_stamp.(lbl) <- g;
            label_tgt.(lbl) <- Bitset.create nstates;
            found := lbl :: !found
          end;
          Bitset.add label_tgt.(lbl) dsts.(k)
        done)
      set;
    !found
  in
  let has_final set = Bitset.fold (fun q acc -> acc || ct.final.(q)) set false in
  let start = Bitset.create nstates in
  Bitset.add start ct.initial;
  let root = intern 0 start in
  let all = ref [] in
  while not (Queue.is_empty worklist) do
    Limits.check g;
    let node, set = Queue.take worklist in
    all := node :: !all;
    let i = node.boundary in
    if i = n then begin
      let eofs =
        List.filter_map
          (fun lbl -> if has_final label_tgt.(lbl) then Some (Eof_set lbl) else None)
          (set_labels set)
      in
      let eofs = if has_final set then eofs @ [ Eof_empty ] else eofs in
      node.actions <- eofs
    end
    else begin
      let cls = ct.class_of.(Char.code (String.unsafe_get doc i)) in
      let edges =
        List.filter_map
          (fun lbl ->
            let after = image label_tgt.(lbl) cls in
            if Bitset.is_empty after then None
            else Some (Edge (i, lbl, intern (i + 1) after)))
          (set_labels set)
      in
      let skip =
        let after = image set cls in
        if Bitset.is_empty after then [] else [ Skip (intern (i + 1) after) ]
      in
      node.actions <- edges @ skip
    end
  done;
  trim_and_pack ct n root !all

let prepare_gauge g ct doc = if ct.small then prepare_small g ct doc else prepare_big g ct doc

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
      let ct = cur.prepared.tables in
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
let prepared_vars p = p.tables.vars

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
  drain (Span_relation.empty p.tables.vars) 0
