open Spanner_core
module Wordrel = Spanner_util.Wordrel
module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits
module Checked = Spanner_util.Checked

(* The engine runs on Compiled's automaton.  Every prepared node's
   summary is a block of one {!Wordrel} slab (four flat buffers: pure,
   mixed and their transposes), found through a node-indexed slot array
   (the store's ids are dense and ascending ids are topological).  Leaf
   nodes share their byte class's block, and the bottom-up sweep is
   iterative — no recursion anywhere on the preparation path, so
   arbitrarily deep SLPs are fine.

   Concurrency contract: [prepare]/[prepare_gauge] mutate the engine
   (the slab, the slot array, the frozen snapshot, the matrix counter)
   and must run on one domain.  Everything else — enumeration, counting
   — only reads the frozen snapshot and already-filled blocks (counting
   keeps its memo per call), and a filled block never moves (the slab
   grows by new chunks, never by copying), so once the roots of
   interest are prepared, many domains may enumerate and count
   concurrently, even while a later preparation fills other blocks
   (Plan's batch path and serve's workers do). *)

type engine = {
  ct : Compiled.t;
  store : Slp.store option;  (* None: frozen-backed (mmap arena), nothing to refresh *)
  rel : Wordrel.t;  (* the summary blocks *)
  ends : Wordrel.row;  (* states that close a run: final, or a set arc from final *)
  mutable frozen : Slp.frozen;
  mutable slots : int array;  (* node id -> its block; [unprepared] until filled *)
  class_slot : int array;  (* byte class -> its block, -1 until a leaf needs it *)
  mutable matrices : int;  (* filled nodes, ×2 (pure + mixed) *)
}

let unprepared = -1
let queued = -2 (* found by the running sweep, not filled yet *)

let make_engine ct store frozen =
  {
    ct;
    store;
    rel = Compiled.summaries ct 16;
    ends = Compiled.ending_states ct;
    frozen;
    slots = Array.make (max 1 (Slp.frozen_size frozen)) unprepared;
    class_slot = Array.make (max 1 (Compiled.classes ct)) (-1);
    matrices = 0;
  }

let of_compiled ct store = make_engine ct (Some store) (Slp.freeze store)

(* A frozen-backed engine never refreshes: the snapshot (typically a
   flat view over an mmapped arena) is the whole world. *)
let of_frozen ct frozen = make_engine ct None frozen

let create e store = of_compiled (Compiled.of_evset e) store

let nondeterministic engine = not (Compiled.is_deterministic engine.ct)

let vars engine = Compiled.vars engine.ct

let nstates engine = Compiled.states engine.ct

let matrices_computed engine = engine.matrices

(* ------------------------------------------------------------------ *)
(* Preparation: iterative bottom-up sweep                              *)

(* The block of a node the enumeration reaches: after preparation every
   node under a prepared root is filled. *)
let slot engine id =
  let s = engine.slots.(id) in
  if s < 0 then invalid_arg "Slp_spanner: node not prepared" else s

(* Leaf blocks, shared per byte class (only [prepare_gauge] calls this,
   so the lazy fill is single-domain). *)
let class_block engine cls =
  if engine.class_slot.(cls) < 0 then
    engine.class_slot.(cls) <- Compiled.add_class_summary engine.ct engine.rel cls;
  engine.class_slot.(cls)

(* Refresh the snapshot and grow the slot array when the store has
   gained nodes since the last preparation. *)
let refresh engine =
  match engine.store with
  | None -> ()
  | Some store ->
      let n = Slp.store_size store in
      if n > Slp.frozen_size engine.frozen then engine.frozen <- Slp.freeze store;
      if n > Array.length engine.slots then begin
        let slots = Array.make n unprepared in
        Array.blit engine.slots 0 slots 0 (Array.length engine.slots);
        engine.slots <- slots
      end

let prepare_gauge g engine id =
  refresh engine;
  let fz = engine.frozen and slots = engine.slots in
  if slots.(id) = unprepared then begin
    (* Reachable nodes with no block yet, in post-order (children before
       parents) by an explicit-stack depth-first search: a node is
       marked when popped, and a popped [-id - 1] emits [id] once all it
       reaches is emitted. *)
    let order = Vec.create () and stack = Vec.create () in
    let sweep () =
      ignore (Vec.push stack id);
      while not (Vec.is_empty stack) do
        let x = Vec.pop stack in
        if x < 0 then ignore (Vec.push order (-x - 1))
        else if slots.(x) = unprepared then begin
          slots.(x) <- queued;
          ignore (Vec.push stack (-x - 1));
          match Slp.frozen_node fz x with
          | Slp.Leaf _ -> ()
          | Slp.Pair (l, r) ->
              if slots.(r) = unprepared then ignore (Vec.push stack r);
              if slots.(l) = unprepared then ignore (Vec.push stack l)
        end
      done;
      (* each pair node is one composition into a block of the slab *)
      let nst = nstates engine in
      Vec.iter
        (fun id ->
          (* one node's block (products + transposes) is ~nstates row
             unions of work *)
          Limits.charge g nst;
          slots.(id) <-
            (match Slp.frozen_node fz id with
            | Slp.Leaf c -> class_block engine (Compiled.class_of_char engine.ct c)
            | Slp.Pair (l, r) ->
                let s = Wordrel.alloc engine.rel in
                Wordrel.compose engine.rel slots.(l) engine.rel slots.(r) engine.rel s;
                s);
          engine.matrices <- engine.matrices + 2)
        order
    in
    match sweep () with
    | () -> ()
    | exception e ->
        (* filled blocks stay valid, and a retry resumes from them; the
           nodes marked but not filled are unprepared again *)
        let unmark x =
          let x = if x < 0 then -x - 1 else x in
          if slots.(x) = queued then slots.(x) <- unprepared
        in
        Vec.iter unmark order;
        Vec.iter unmark stack;
        raise e
  end

let prepare engine id = prepare_gauge (Limits.unlimited ()) engine id

(* ------------------------------------------------------------------ *)
(* Enumeration: a native pull machine (Muñoz & Riveros)               *)

(* Enumerate every accepting run init→q over the prepared blocks.
   Picks (0-based boundary, label id) accumulate in [c_pk]; the blocks
   guarantee that every branch taken yields at least one run, so there
   is no dead search.  The depth-first search is an explicit machine:
   continuations are [task] values, the recursion is a frame stack, and
   each [cursor_next] runs the machine until the next run completes.
   Order: per ending state, per ending, the letters-only run first, then
   mixed runs in (mid asc; L, R, B) order at every Pair — the order
   [Incr.cursor] emits too.

   Two things make the delay small and document-independent:

   - candidate splits are found by {!Wordrel.first_split}, which scans
     a left child's rows against a right child's transposed rows (its
     columns) a word at a time, so dead mid states are skipped 63 at a
     time instead of being probed one by one;
   - the machine is loop-based: no recursion, no effect handler, no
     per-pull fiber switch, and arbitrarily deep SLPs (a left-comb
     append log, say) cannot overflow the stack. *)

type task =
  | Emit
  | Expl of { x_id : Slp.id; x_p : int; x_q : int; x_off : int; x_k : task }

(* One suspended choice point of the depth-first search.  Frames above
   a frame on the stack explore its current choice; popping resumes the
   parent exactly where it left off. *)
type frame =
  | Pair_f of {
      g_l : Slp.id;
      g_r : Slp.id;
      g_ls : int;  (* the children's blocks *)
      g_rs : int;
      g_p : int;
      g_q : int;
      g_off : int;  (* absolute offset of the left part *)
      g_roff : int;  (* absolute offset of the right part *)
      g_k : task;
      mutable g_mid : int;  (* next split state to consider *)
      mutable g_stage : int;  (* within g_mid: 0 try L, 1 try R, 2 try B *)
    }
  | Leaf_f of {
      f_off : int;
      f_k : task;
      f_arcs : int array;  (* marker labels compatible with the leaf's block *)
      mutable f_arc : int;
      f_picks : int;  (* picks depth at entry: truncate to this on resume *)
    }

type cursor = {
  c_e : engine;
  c_fz : Slp.frozen;  (* snapshot captured at creation *)
  c_root : Slp.id;
  c_slot : int;  (* the root's block *)
  c_len : int;
  c_n : int;
  c_pk : Compiled.picks;
  c_stack : frame Vec.t;
  mutable c_q : int;  (* current ending state (-1 before the scan starts) *)
  mutable c_endings : int list;  (* endings left for c_q: trailing labels, -1 for none *)
  mutable c_ending : int;  (* ending under exploration *)
  mutable c_emit_pure : bool;  (* owe c_ending its letters-only run *)
  mutable c_start_mixed : bool;  (* owe c_ending its mixed exploration *)
  mutable c_done : bool;
}

let cursor engine id =
  {
    c_e = engine;
    c_fz = engine.frozen;
    c_root = id;
    c_slot = slot engine id;
    c_len = Slp.frozen_len engine.frozen id;
    c_n = nstates engine;
    c_pk = Compiled.picks engine.ct;
    c_stack = Vec.create ();
    c_q = -1;
    c_endings = [];
    c_ending = -1;
    c_emit_pure = false;
    c_start_mixed = false;
    c_done = false;
  }

(* Push the frame exploring runs p→q over [id] (continuation [k]). *)
let start_expl cur id p q off k =
  let e = cur.c_e in
  match Slp.frozen_node cur.c_fz id with
  | Slp.Leaf _ ->
      let s = slot e id in
      let arcs = Vec.create () in
      Compiled.iter_set_arcs e.ct p (fun lbl p' ->
          if Wordrel.pure_mem e.rel s p' q then ignore (Vec.push arcs lbl));
      ignore
        (Vec.push cur.c_stack
           (Leaf_f
              {
                f_off = off;
                f_k = k;
                f_arcs = Vec.to_array arcs;
                f_arc = 0;
                f_picks = Compiled.picks_length cur.c_pk;
              }))
  | Slp.Pair (l, r) ->
      ignore
        (Vec.push cur.c_stack
           (Pair_f
              {
                g_l = l;
                g_r = r;
                g_ls = slot e l;
                g_rs = slot e r;
                g_p = p;
                g_q = q;
                g_off = off;
                g_roff = off + Slp.frozen_len cur.c_fz l;
                g_k = k;
                g_mid = 0;
                g_stage = 0;
              }))

(* A run just completed: emit, or explore the continuation's range. *)
let perform cur k =
  match k with
  | Emit -> Some (Compiled.tuple_of_picks cur.c_e.ct cur.c_pk cur.c_len cur.c_ending)
  | Expl x ->
      start_expl cur x.x_id x.x_p x.x_q x.x_off x.x_k;
      None

let pop cur = ignore (Vec.pop cur.c_stack)

(* Advance the top frame: descend into its next viable choice (pushing
   a frame and returning [None]), emit a completed run, or pop. *)
let step cur =
  match Vec.last cur.c_stack with
  | Leaf_f f ->
      Compiled.truncate_picks cur.c_pk f.f_picks;
      if f.f_arc >= Array.length f.f_arcs then begin
        pop cur;
        None
      end
      else begin
        let lbl = f.f_arcs.(f.f_arc) in
        f.f_arc <- f.f_arc + 1;
        Compiled.push_pick cur.c_pk f.f_off lbl;
        perform cur f.f_k
      end
  | Pair_f f ->
      let rel = cur.c_e.rel in
      let descended = ref false in
      while (not !descended) && f.g_mid >= 0 && f.g_mid < cur.c_n do
        let mid = f.g_mid in
        match f.g_stage with
        | 0 ->
            (* skip dead split states word-parallel: the next mid where
               any of the three kinds is viable, in one pass *)
            let best = Wordrel.first_split rel f.g_ls f.g_p rel f.g_rs f.g_q mid in
            if best < 0 then f.g_mid <- -1
            else begin
              f.g_mid <- best;
              f.g_stage <- 1;
              (* kind L: markers in the left part, letters-only right *)
              if Wordrel.mixed_mem rel f.g_ls f.g_p best && Wordrel.pure_mem rel f.g_rs best f.g_q
              then begin
                descended := true;
                start_expl cur f.g_l f.g_p best f.g_off f.g_k
              end
            end
        | 1 ->
            f.g_stage <- 2;
            (* kind R: letters-only left, markers in the right part *)
            if Wordrel.pure_mem rel f.g_ls f.g_p mid && Wordrel.mixed_mem rel f.g_rs mid f.g_q then
            begin
              descended := true;
              start_expl cur f.g_r mid f.g_q f.g_roff f.g_k
            end
        | _ ->
            f.g_mid <- mid + 1;
            f.g_stage <- 0;
            (* kind B: markers on both sides — explore the left, then
               the right under the reified continuation *)
            if Wordrel.mixed_mem rel f.g_ls f.g_p mid && Wordrel.mixed_mem rel f.g_rs mid f.g_q then
            begin
              descended := true;
              start_expl cur f.g_l f.g_p mid f.g_off
                (Expl { x_id = f.g_r; x_p = mid; x_q = f.g_q; x_off = f.g_roff; x_k = f.g_k })
            end
      done;
      if not !descended then pop cur;
      None

let cursor_next cur =
  let e = cur.c_e in
  let ct = e.ct in
  let init = Compiled.initial ct in
  let result = ref None in
  while !result == None && not cur.c_done do
    if cur.c_emit_pure then begin
      cur.c_emit_pure <- false;
      result := Some (Compiled.tuple_of_picks ct cur.c_pk cur.c_len cur.c_ending)
    end
    else if cur.c_start_mixed then begin
      cur.c_start_mixed <- false;
      start_expl cur cur.c_root init cur.c_q 0 Emit
    end
    else if not (Vec.is_empty cur.c_stack) then result := step cur
    else begin
      match cur.c_endings with
      | ending :: rest ->
          cur.c_endings <- rest;
          cur.c_ending <- ending;
          cur.c_emit_pure <- Wordrel.pure_mem e.rel cur.c_slot init cur.c_q;
          cur.c_start_mixed <- Wordrel.mixed_mem e.rel cur.c_slot init cur.c_q
      | [] ->
          (* next ending state reachable through either root relation —
             intersecting with the precomputed ending set skips the
             barren reachable states word-parallel instead of building
             an empty endings list for each *)
          let q = Wordrel.first_in_row e.rel cur.c_slot init e.ends (cur.c_q + 1) in
          if q < 0 then cur.c_done <- true
          else begin
            cur.c_q <- q;
            cur.c_endings <- Compiled.endings ct q
          end
    end
  done;
  !result

(* Run counts can pass [max_int] on exponentially compressed
   documents, so every sum and product is checked. *)
let add = Checked.add ~what:"cardinal"
let mul = Checked.mul ~what:"cardinal"

let cardinal engine id =
  prepare engine id;
  let ct = engine.ct and rel = engine.rel in
  let fz = engine.frozen in
  let n = nstates engine in
  (* mixed-run counts per (node, p, q), memoised for this call only:
     the engine is shared read-only across domains *)
  let memo = Hashtbl.create 256 in
  let rec count id p q =
    let key = (((id * n) + p) * n) + q in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
        let c =
          match Slp.frozen_node fz id with
          | Slp.Leaf _ ->
              let s = slot engine id in
              let total = ref 0 in
              Compiled.iter_set_arcs ct p (fun _ p' -> if Wordrel.pure_mem rel s p' q then incr total);
              !total
          | Slp.Pair (l, r) ->
              let ls = slot engine l and rs = slot engine r in
              let total = ref 0 in
              let mid = ref (Wordrel.first_split rel ls p rel rs q 0) in
              while !mid >= 0 do
                let m = !mid in
                let mixed_l = Wordrel.mixed_mem rel ls p m and mixed_r = Wordrel.mixed_mem rel rs m q in
                if mixed_l && Wordrel.pure_mem rel rs m q then total := add !total (count l p m);
                if Wordrel.pure_mem rel ls p m && mixed_r then total := add !total (count r m q);
                if mixed_l && mixed_r then total := add !total (mul (count l p m) (count r m q));
                mid := Wordrel.first_split rel ls p rel rs q (m + 1)
              done;
              !total
        in
        Hashtbl.add memo key c;
        c
  in
  let init = Compiled.initial ct in
  let root = slot engine id in
  let total = ref 0 in
  for q = 0 to n - 1 do
    let pure = Wordrel.pure_mem rel root init q and mixed = Wordrel.mixed_mem rel root init q in
    if pure || mixed then begin
      let runs = add (if pure then 1 else 0) (if mixed then count id init q else 0) in
      total := add !total (mul runs (List.length (Compiled.endings ct q)))
    end
  done;
  !total

(* Every run's tuple, deduplicated; each run drawn is one step of [g]. *)
let relation g engine id =
  prepare_gauge g engine id;
  let cur = cursor engine id in
  let rec drain r =
    match cursor_next cur with
    | None -> r
    | Some t ->
        Limits.check g;
        drain (Span_relation.add r t)
  in
  drain (Span_relation.empty (vars engine))

let to_relation engine id = relation (Limits.unlimited ()) engine id

let tuple_count ?(limits = Limits.none) engine id =
  let g = Limits.start limits in
  if nondeterministic engine then Span_relation.cardinal (relation g engine id)
  else begin
    prepare_gauge g engine id;
    cardinal engine id
  end
