open Spanner_core
module Bitset = Spanner_util.Bitset
module Bitmatrix = Spanner_util.Bitmatrix
module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits
module Checked = Spanner_util.Checked

(* The engine runs on Compiled's automaton.  Node matrices live in
   plain node-indexed arrays (the store's ids are dense and ascending
   ids are topological), leaf matrices are shared per byte class, and
   the bottom-up sweep is iterative — no recursion anywhere on the
   preparation path, so arbitrarily deep SLPs are fine.

   Concurrency contract: [prepare]/[prepare_gauge] mutate the engine
   (matrix slots, the frozen snapshot, the matrix counter) and must
   run on one domain.  Everything else — enumeration, counting —
   only reads the frozen snapshot and already-filled slots (counting
   keeps its memo per call), so once the roots of interest are
   prepared, many domains may enumerate and count concurrently
   (Plan's batch path and serve's workers do). *)

type engine = {
  ct : Compiled.t;
  store : Slp.store option;  (* None: frozen-backed (mmap arena), nothing to refresh *)
  set_step : Bitmatrix.t;
  ends : Bitset.t;  (* states that close a run: final, or a set arc from final *)
  mutable frozen : Slp.frozen;
  mutable pure : Bitmatrix.t option array; (* node id -> Pure_A *)
  mutable mixed : Bitmatrix.t option array; (* node id -> Mixed_A *)
  mutable pure_t : Bitmatrix.t option array; (* node id -> Pure_Aᵀ *)
  mutable mixed_t : Bitmatrix.t option array; (* node id -> Mixed_Aᵀ *)
  class_pure : Bitmatrix.t option array; (* byte class -> letter step *)
  class_mixed : Bitmatrix.t option array; (* byte class -> set·letter *)
  class_pure_t : Bitmatrix.t option array;
  class_mixed_t : Bitmatrix.t option array;
  mutable matrices : int; (* filled node slots, ×2 (pure + mixed) *)
}

let make_engine ct store frozen =
  let n = max 1 (Slp.frozen_size frozen) in
  let ncls = max 1 (Compiled.classes ct) in
  {
    ct;
    store;
    set_step = Compiled.set_step_matrix ct;
    ends = Compiled.ending_states ct;
    frozen;
    pure = Array.make n None;
    mixed = Array.make n None;
    pure_t = Array.make n None;
    mixed_t = Array.make n None;
    class_pure = Array.make ncls None;
    class_mixed = Array.make ncls None;
    class_pure_t = Array.make ncls None;
    class_mixed_t = Array.make ncls None;
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

(* Leaf matrices, shared per byte class (only [prepare_gauge] calls
   these, so the lazy fill is single-domain). *)
let class_pure engine cls =
  match engine.class_pure.(cls) with
  | Some m -> m
  | None ->
      let m = Compiled.class_matrix engine.ct cls in
      engine.class_pure.(cls) <- Some m;
      m

let class_mixed engine cls =
  match engine.class_mixed.(cls) with
  | Some m -> m
  | None ->
      let m = Bitmatrix.mul engine.set_step (class_pure engine cls) in
      engine.class_mixed.(cls) <- Some m;
      m

(* Transposed leaf matrices, shared per class like their sources. *)
let class_pure_t engine cls =
  match engine.class_pure_t.(cls) with
  | Some m -> m
  | None ->
      let m = Bitmatrix.transpose (class_pure engine cls) in
      engine.class_pure_t.(cls) <- Some m;
      m

let class_mixed_t engine cls =
  match engine.class_mixed_t.(cls) with
  | Some m -> m
  | None ->
      let m = Bitmatrix.transpose (class_mixed engine cls) in
      engine.class_mixed_t.(cls) <- Some m;
      m

(* Read-only leaf lookup for the enumeration path: after preparation
   every class under a prepared root is filled. *)
let leaf_pure engine c =
  match engine.class_pure.(Compiled.class_of_char engine.ct c) with
  | Some m -> m
  | None -> invalid_arg "Slp_spanner: node not prepared"

let pure_m engine id =
  match engine.pure.(id) with
  | Some m -> m
  | None -> invalid_arg "Slp_spanner: node not prepared"

let mixed_m engine id =
  match engine.mixed.(id) with
  | Some m -> m
  | None -> invalid_arg "Slp_spanner: node not prepared"

let pure_t_m engine id =
  match engine.pure_t.(id) with
  | Some m -> m
  | None -> invalid_arg "Slp_spanner: node not prepared"

let mixed_t_m engine id =
  match engine.mixed_t.(id) with
  | Some m -> m
  | None -> invalid_arg "Slp_spanner: node not prepared"

(* Refresh the snapshot and grow the slot arrays when the store has
   gained nodes since the last preparation. *)
let refresh engine =
  match engine.store with
  | None -> ()
  | Some store ->
      let n = Slp.store_size store in
      if n > Slp.frozen_size engine.frozen then engine.frozen <- Slp.freeze store;
      if n > Array.length engine.pure then begin
        let grow a =
          let b = Array.make n None in
          Array.blit a 0 b 0 (Array.length a);
          b
        in
        engine.pure <- grow engine.pure;
        engine.mixed <- grow engine.mixed;
        engine.pure_t <- grow engine.pure_t;
        engine.mixed_t <- grow engine.mixed_t
      end

let prepare_gauge g engine id =
  refresh engine;
  let fz = engine.frozen in
  (* Reachable nodes with no matrices yet, by explicit stack. *)
  let todo = Vec.create () in
  let seen = Hashtbl.create 64 in
  let stack = ref [ id ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        if engine.pure.(id) == None && not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          ignore (Vec.push todo id);
          match Slp.frozen_node fz id with
          | Slp.Leaf _ -> ()
          | Slp.Pair (l, r) -> stack := l :: r :: !stack
        end
  done;
  (* Ascending ids are children-before-parents: sort and sweep. *)
  let order = Vec.to_array todo in
  Array.sort Int.compare order;
  let nst = nstates engine in
  Array.iter
    (fun id ->
      (* one node's matrix block (products + block transposes) is
         ~nstates row unions of work *)
      Limits.charge g nst;
      let p, m, pt, mt =
        match Slp.frozen_node fz id with
        | Slp.Leaf c ->
            let cls = Compiled.class_of_char engine.ct c in
            ( class_pure engine cls,
              class_mixed engine cls,
              class_pure_t engine cls,
              class_mixed_t engine cls )
        | Slp.Pair (l, r) ->
            let pl = pure_m engine l and ml = mixed_m engine l in
            let pr = pure_m engine r and mr = mixed_m engine r in
            let p = Bitmatrix.mul pl pr in
            (* Mixed_AB = Mixed_A·Pure_B ∪ Mixed_A·Mixed_B ∪ Pure_A·Mixed_B,
               accumulated in place — no temporary unions. *)
            let m = Bitmatrix.create nst in
            Bitmatrix.mul_add ~into:m ml pr;
            Bitmatrix.mul_add ~into:m ml mr;
            Bitmatrix.mul_add ~into:m pl mr;
            (* The native enumerator intersects a left child's rows with
               a right child's columns per descent step; transposing
               here (O(n²/64) block work, much less than the products
               above) is what makes those columns one-row reads. *)
            (p, m, Bitmatrix.transpose p, Bitmatrix.transpose m)
      in
      engine.pure.(id) <- Some p;
      engine.mixed.(id) <- Some m;
      engine.pure_t.(id) <- Some pt;
      engine.mixed_t.(id) <- Some mt;
      engine.matrices <- engine.matrices + 2)
    order

let prepare engine id = prepare_gauge (Limits.unlimited ()) engine id

(* ------------------------------------------------------------------ *)
(* Enumeration: a native pull machine (Muñoz & Riveros)               *)

(* Enumerate every accepting run init→q over the prepared matrices.
   Picks (0-based boundary, label id) accumulate in [c_picks]; the
   matrices guarantee that every branch taken yields at least one run,
   so there is no dead search.  The depth-first search is an explicit
   machine: continuations are [task] values, the recursion is a frame
   stack, and each [cursor_next] runs the machine until the next run
   completes.  Order: per ending state, per ending, the letters-only
   run first, then mixed runs in (mid asc; L, R, B) order at every
   Pair — the order [Incr.cursor] emits too.

   Two things make the delay small and document-independent:

   - candidate splits are found by intersecting a left child's matrix
     {e row} with a right child's transposed-matrix row (its column)
     via {!Bitset.first_common_from}, so dead mid states are skipped
     eight at a time instead of being probed one by one;
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
      g_p : int;
      g_q : int;
      g_off : int;  (* absolute offset of the left part *)
      g_roff : int;  (* absolute offset of the right part *)
      g_k : task;
      ml_p : Bitset.t;  (* row p of Mixed_L *)
      pl_p : Bitset.t;  (* row p of Pure_L *)
      prt_q : Bitset.t;  (* row q of Pure_Rᵀ — column q of Pure_R *)
      mrt_q : Bitset.t;  (* row q of Mixed_Rᵀ *)
      mutable g_mid : int;  (* next split state to consider *)
      mutable g_stage : int;  (* within g_mid: 0 try L, 1 try R, 2 try B *)
    }
  | Leaf_f of {
      f_off : int;
      f_k : task;
      f_arcs : int array;  (* marker labels compatible with the leaf matrix *)
      mutable f_arc : int;
      f_picks : int;  (* picks depth at entry: truncate to this on resume *)
    }

type cursor = {
  c_e : engine;
  c_fz : Slp.frozen;  (* snapshot captured at creation *)
  c_root : Slp.id;
  c_len : int;
  c_n : int;
  c_picks : (int * int) Vec.t;
  c_stack : frame Vec.t;
  c_proot : Bitset.t;  (* row init of Pure_root *)
  c_mroot : Bitset.t;  (* row init of Mixed_root *)
  mutable c_q : int;  (* current ending state (-1 before the scan starts) *)
  mutable c_endings : (int * int) option list;  (* endings left for c_q *)
  mutable c_ending : (int * int) option;  (* ending under exploration *)
  mutable c_emit_pure : bool;  (* owe c_ending its letters-only run *)
  mutable c_start_mixed : bool;  (* owe c_ending its mixed exploration *)
  mutable c_done : bool;
}

let cursor engine id =
  let init = Compiled.initial engine.ct in
  {
    c_e = engine;
    c_fz = engine.frozen;
    c_root = id;
    c_len = Slp.frozen_len engine.frozen id;
    c_n = nstates engine;
    c_picks = Vec.create ();
    c_stack = Vec.create ();
    c_proot = Bitmatrix.row (pure_m engine id) init;
    c_mroot = Bitmatrix.row (mixed_m engine id) init;
    c_q = -1;
    c_endings = [];
    c_ending = None;
    c_emit_pure = false;
    c_start_mixed = false;
    c_done = false;
  }

(* Push the frame exploring runs p→q over [id] (continuation [k]). *)
let start_expl cur id p q off k =
  match Slp.frozen_node cur.c_fz id with
  | Slp.Leaf ch ->
      let lm = leaf_pure cur.c_e ch in
      let arcs = Vec.create () in
      Compiled.iter_set_arcs cur.c_e.ct p (fun lbl p' ->
          if Bitmatrix.get lm p' q then ignore (Vec.push arcs lbl));
      ignore
        (Vec.push cur.c_stack
           (Leaf_f
              {
                f_off = off;
                f_k = k;
                f_arcs = Vec.to_array arcs;
                f_arc = 0;
                f_picks = Vec.length cur.c_picks;
              }))
  | Slp.Pair (l, r) ->
      ignore
        (Vec.push cur.c_stack
           (Pair_f
              {
                g_l = l;
                g_r = r;
                g_p = p;
                g_q = q;
                g_off = off;
                g_roff = off + Slp.frozen_len cur.c_fz l;
                g_k = k;
                ml_p = Bitmatrix.row (mixed_m cur.c_e l) p;
                pl_p = Bitmatrix.row (pure_m cur.c_e l) p;
                prt_q = Bitmatrix.row (pure_t_m cur.c_e r) q;
                mrt_q = Bitmatrix.row (mixed_t_m cur.c_e r) q;
                g_mid = 0;
                g_stage = 0;
              }))

(* A run just completed: emit, or explore the continuation's range. *)
let perform cur k =
  match k with
  | Emit -> Some (Compiled.tuple_of_picks cur.c_e.ct cur.c_picks cur.c_ending)
  | Expl x ->
      start_expl cur x.x_id x.x_p x.x_q x.x_off x.x_k;
      None

let pop cur = ignore (Vec.pop cur.c_stack)

(* Advance the top frame: descend into its next viable choice (pushing
   a frame and returning [None]), emit a completed run, or pop. *)
let step cur =
  match Vec.last cur.c_stack with
  | Leaf_f f ->
      Vec.truncate cur.c_picks f.f_picks;
      if f.f_arc >= Array.length f.f_arcs then begin
        pop cur;
        None
      end
      else begin
        let lbl = f.f_arcs.(f.f_arc) in
        f.f_arc <- f.f_arc + 1;
        ignore (Vec.push cur.c_picks (f.f_off, lbl));
        perform cur f.f_k
      end
  | Pair_f f ->
      let descended = ref false in
      while (not !descended) && f.g_mid >= 0 && f.g_mid < cur.c_n do
        let mid = f.g_mid in
        match f.g_stage with
        | 0 ->
            (* skip dead split states word-parallel: the next mid where
               any of the three kinds is viable, in one fused pass *)
            let best = Bitset.first_split_from f.ml_p f.pl_p f.prt_q f.mrt_q mid in
            if best < 0 then f.g_mid <- -1
            else begin
              f.g_mid <- best;
              f.g_stage <- 1;
              (* kind L: markers in the left part, letters-only right *)
              if Bitset.mem f.ml_p best && Bitset.mem f.prt_q best then begin
                descended := true;
                start_expl cur f.g_l f.g_p best f.g_off f.g_k
              end
            end
        | 1 ->
            f.g_stage <- 2;
            (* kind R: letters-only left, markers in the right part *)
            if Bitset.mem f.pl_p mid && Bitset.mem f.mrt_q mid then begin
              descended := true;
              start_expl cur f.g_r mid f.g_q f.g_roff f.g_k
            end
        | _ ->
            f.g_mid <- mid + 1;
            f.g_stage <- 0;
            (* kind B: markers on both sides — explore the left, then
               the right under the reified continuation *)
            if Bitset.mem f.ml_p mid && Bitset.mem f.mrt_q mid then begin
              descended := true;
              start_expl cur f.g_l f.g_p mid f.g_off
                (Expl { x_id = f.g_r; x_p = mid; x_q = f.g_q; x_off = f.g_roff; x_k = f.g_k })
            end
      done;
      if not !descended then pop cur;
      None

let cursor_next cur =
  let ct = cur.c_e.ct in
  let init = Compiled.initial ct in
  let result = ref None in
  while !result == None && not cur.c_done do
    if cur.c_emit_pure then begin
      cur.c_emit_pure <- false;
      result := Some (Compiled.tuple_of_picks ct cur.c_picks cur.c_ending)
    end
    else if cur.c_start_mixed then begin
      cur.c_start_mixed <- false;
      start_expl cur cur.c_root init cur.c_q 0 Emit
    end
    else if not (Vec.is_empty cur.c_stack) then result := step cur
    else begin
      match cur.c_endings with
      | e :: rest ->
          cur.c_endings <- rest;
          cur.c_ending <- e;
          cur.c_emit_pure <- Bitset.mem cur.c_proot cur.c_q;
          cur.c_start_mixed <- Bitset.mem cur.c_mroot cur.c_q
      | [] -> (
          (* next ending state reachable through either root matrix —
             intersecting with the precomputed ending set skips the
             barren reachable states word-parallel instead of building
             an empty endings list for each *)
          let from = cur.c_q + 1 in
          let q =
            let a = Bitset.first_common_from cur.c_proot cur.c_e.ends from in
            let b = Bitset.first_common_from cur.c_mroot cur.c_e.ends from in
            if a < 0 then b else if b < 0 then a else min a b
          in
          if q < 0 then cur.c_done <- true
          else begin
            cur.c_q <- q;
            (* runs ending at q, then the trailing boundary *)
            let endings = ref [] in
            if Compiled.is_final_state ct q then endings := None :: !endings;
            Compiled.iter_set_arcs ct q (fun lbl q' ->
                if Compiled.is_final_state ct q' then
                  endings := Some (cur.c_len, lbl) :: !endings);
            cur.c_endings <- !endings
          end)
    end
  done;
  !result

(* Run counts can pass [max_int] on exponentially compressed
   documents, so every sum and product is checked. *)
let add = Checked.add ~what:"cardinal"
let mul = Checked.mul ~what:"cardinal"

let cardinal engine id =
  prepare engine id;
  let ct = engine.ct in
  let fz = engine.frozen in
  let n = nstates engine in
  (* mixed-run counts per (node, p, q), memoised for this call only:
     the engine is shared read-only across domains *)
  let memo = Hashtbl.create 256 in
  let rec count id p q =
    match Hashtbl.find_opt memo (id, p, q) with
    | Some c -> c
    | None ->
        let c =
          match Slp.frozen_node fz id with
          | Slp.Leaf ch ->
              let lm = leaf_pure engine ch in
              let total = ref 0 in
              Compiled.iter_set_arcs ct p (fun _ p' ->
                  if Bitmatrix.get lm p' q then incr total);
              !total
          | Slp.Pair (l, r) ->
              let pure_l = pure_m engine l and mixed_l = mixed_m engine l in
              let pure_r = pure_m engine r and mixed_r = mixed_m engine r in
              let total = ref 0 in
              for mid = 0 to n - 1 do
                if Bitmatrix.get mixed_l p mid && Bitmatrix.get pure_r mid q then
                  total := add !total (count l p mid);
                if Bitmatrix.get pure_l p mid && Bitmatrix.get mixed_r mid q then
                  total := add !total (count r mid q);
                if Bitmatrix.get mixed_l p mid && Bitmatrix.get mixed_r mid q then
                  total := add !total (mul (count l p mid) (count r mid q))
              done;
              !total
        in
        Hashtbl.add memo (id, p, q) c;
        c
  in
  let init = Compiled.initial ct in
  let pure_root = pure_m engine id and mixed_root = mixed_m engine id in
  let total = ref 0 in
  for q = 0 to n - 1 do
    if Bitmatrix.get pure_root init q || Bitmatrix.get mixed_root init q then begin
      let endings = ref 0 in
      if Compiled.is_final_state ct q then incr endings;
      Compiled.iter_set_arcs ct q (fun _ q' ->
          if Compiled.is_final_state ct q' then incr endings);
      let runs =
        add
          (if Bitmatrix.get pure_root init q then 1 else 0)
          (if Bitmatrix.get mixed_root init q then count id init q else 0)
      in
      total := add !total (mul runs !endings)
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
