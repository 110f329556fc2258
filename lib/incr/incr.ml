open Spanner_core
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Lru = Spanner_util.Lru
module Wordrel = Spanner_util.Wordrel
module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits

(* A cached summary is a one-block slab ({!Compiled.summaries}): the LRU
   may evict it while a cursor still holds it, and it stays valid for
   that cursor, which a slot in a shared slab would not. *)
type session = {
  ct : Compiled.t;
  db : Doc_db.t;
  cache : (Slp.id, Wordrel.t) Lru.t;
  ends : Wordrel.row;  (* states that close a run: final, or a set arc from final *)
  mutable created : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
  nodes_created : int;
}

let create ?(cache_capacity = 65536) ct db =
  let s =
    {
      ct;
      db;
      cache = Lru.create ~capacity:cache_capacity ();
      ends = Compiled.ending_states ct;
      created = 0;
    }
  in
  Slp.on_new_node (Doc_db.store db) (fun id ->
      s.created <- s.created + 1;
      (* A fresh id cannot have a summary yet; dropping defensively
         keeps the cache sound even if ids were ever recycled. *)
      Lru.remove s.cache id);
  s

let compiled s = s.ct
let database s = s.db
let nondeterministic s = not (Compiled.is_deterministic s.ct)

let rec summary_g g s id =
  match Lru.find s.cache id with
  | Some sum -> sum
  | None ->
      (* one unit of fuel per summary actually computed (a cache miss):
         composing is the states³/word work the budget must bound *)
      Limits.check g;
      let sum = Compiled.summaries s.ct 1 in
      (match Slp.node (Doc_db.store s.db) id with
      | Slp.Leaf c -> ignore (Compiled.add_class_summary s.ct sum (Compiled.class_of_char s.ct c))
      | Slp.Pair (l, r) ->
          (* right child first: the order of misses decides which
             entries a full cache evicts *)
          let sr = summary_g g s r in
          let sl = summary_g g s l in
          Wordrel.compose sl 0 sr 0 sum (Wordrel.alloc sum));
      Lru.add s.cache id sum;
      sum

(* ------------------------------------------------------------------ *)
(* Pull enumeration                                                    *)

(* Enumerate the marker-placing runs init→q over node [id], guided by
   the summaries so that every branch taken yields at least one run
   (the §4.2 scheme).  The same frame-stack machine as the native SLP
   cursor ({!Spanner_slp.Slp_spanner.cursor}), and the same emission
   order, over cached summaries instead of prepared blocks: split states
   are found by the same word scan ({!Wordrel.first_split}) over each
   summary's transposed rows.  Metering: one unit per node descent, plus
   one per summary miss on the way.  A nondeterministic compiled
   automaton may yield one tuple along several runs; [eval] collects
   into a relation, which dedups. *)

type task =
  | Emit
  | Expl of { x_id : Slp.id; x_p : int; x_q : int; x_off : int; x_k : task }

type frame =
  | Pair_f of {
      g_l : Slp.id;
      g_r : Slp.id;
      g_p : int;
      g_q : int;
      g_off : int;
      g_roff : int;
      g_k : task;
      s_l : Wordrel.t;
      s_r : Wordrel.t;
      mutable g_mid : int;
      mutable g_stage : int;  (* within g_mid: 0 try L, 1 try R, 2 try B *)
    }
  | Leaf_f of {
      f_off : int;
      f_k : task;
      f_arcs : int array;
      mutable f_arc : int;
      f_picks : int;  (* picks depth at entry: truncate to this on resume *)
    }

type cursor = {
  k_s : session;
  k_g : Limits.gauge;
  k_root : Slp.id;
  k_len : int;
  k_n : int;
  k_pk : Compiled.picks;
  k_stack : frame Vec.t;
  k_sum : Wordrel.t;  (* the root's summary, held for the q scan *)
  mutable k_q : int;
  mutable k_endings : int list;  (* trailing labels, -1 for none *)
  mutable k_ending : int;
  mutable k_emit_pure : bool;
  mutable k_start_mixed : bool;
  mutable k_done : bool;
}

let cursor ?gauge s id =
  let g = match gauge with Some g -> g | None -> Limits.unlimited () in
  let root = summary_g g s id in
  {
    k_s = s;
    k_g = g;
    k_root = id;
    k_len = Slp.len (Doc_db.store s.db) id;
    k_n = Compiled.states s.ct;
    k_pk = Compiled.picks s.ct;
    k_stack = Vec.create ();
    k_sum = root;
    k_q = -1;
    k_endings = [];
    k_ending = -1;
    k_emit_pure = false;
    k_start_mixed = false;
    k_done = false;
  }

let start_expl cur id p q off k =
  (* one unit per node descent *)
  Limits.check cur.k_g;
  let s = cur.k_s in
  match Slp.node (Doc_db.store s.db) id with
  | Slp.Leaf _ ->
      let letter = summary_g cur.k_g s id in
      let arcs = Vec.create () in
      Compiled.iter_set_arcs s.ct p (fun lbl p' ->
          if Wordrel.pure_mem letter 0 p' q then ignore (Vec.push arcs lbl));
      ignore
        (Vec.push cur.k_stack
           (Leaf_f
              {
                f_off = off;
                f_k = k;
                f_arcs = Vec.to_array arcs;
                f_arc = 0;
                f_picks = Compiled.picks_length cur.k_pk;
              }))
  | Slp.Pair (l, r) ->
      ignore
        (Vec.push cur.k_stack
           (Pair_f
              {
                g_l = l;
                g_r = r;
                g_p = p;
                g_q = q;
                g_off = off;
                g_roff = off + Slp.len (Doc_db.store s.db) l;
                g_k = k;
                s_l = summary_g cur.k_g s l;
                s_r = summary_g cur.k_g s r;
                g_mid = 0;
                g_stage = 0;
              }))

let perform cur k =
  match k with
  | Emit -> Some (Compiled.tuple_of_picks cur.k_s.ct cur.k_pk cur.k_len cur.k_ending)
  | Expl x ->
      start_expl cur x.x_id x.x_p x.x_q x.x_off x.x_k;
      None

let step cur =
  match Vec.last cur.k_stack with
  | Leaf_f f ->
      Compiled.truncate_picks cur.k_pk f.f_picks;
      if f.f_arc >= Array.length f.f_arcs then begin
        ignore (Vec.pop cur.k_stack);
        None
      end
      else begin
        let lbl = f.f_arcs.(f.f_arc) in
        f.f_arc <- f.f_arc + 1;
        Compiled.push_pick cur.k_pk f.f_off lbl;
        perform cur f.f_k
      end
  | Pair_f f ->
      let descended = ref false in
      while (not !descended) && f.g_mid >= 0 && f.g_mid < cur.k_n do
        let mid = f.g_mid in
        match f.g_stage with
        | 0 ->
            let best = Wordrel.first_split f.s_l 0 f.g_p f.s_r 0 f.g_q mid in
            if best < 0 then f.g_mid <- -1
            else begin
              f.g_mid <- best;
              f.g_stage <- 1;
              if Wordrel.mixed_mem f.s_l 0 f.g_p best && Wordrel.pure_mem f.s_r 0 best f.g_q then
              begin
                descended := true;
                start_expl cur f.g_l f.g_p best f.g_off f.g_k
              end
            end
        | 1 ->
            f.g_stage <- 2;
            if Wordrel.pure_mem f.s_l 0 f.g_p mid && Wordrel.mixed_mem f.s_r 0 mid f.g_q then begin
              descended := true;
              start_expl cur f.g_r mid f.g_q f.g_roff f.g_k
            end
        | _ ->
            f.g_mid <- mid + 1;
            f.g_stage <- 0;
            if Wordrel.mixed_mem f.s_l 0 f.g_p mid && Wordrel.mixed_mem f.s_r 0 mid f.g_q then begin
              descended := true;
              start_expl cur f.g_l f.g_p mid f.g_off
                (Expl { x_id = f.g_r; x_p = mid; x_q = f.g_q; x_off = f.g_roff; x_k = f.g_k })
            end
      done;
      if not !descended then ignore (Vec.pop cur.k_stack);
      None

let cursor_next cur =
  let ct = cur.k_s.ct in
  let init = Compiled.initial ct in
  let result = ref None in
  while !result == None && not cur.k_done do
    if cur.k_emit_pure then begin
      cur.k_emit_pure <- false;
      result := Some (Compiled.tuple_of_picks ct cur.k_pk cur.k_len cur.k_ending)
    end
    else if cur.k_start_mixed then begin
      cur.k_start_mixed <- false;
      start_expl cur cur.k_root init cur.k_q 0 Emit
    end
    else if not (Vec.is_empty cur.k_stack) then result := step cur
    else begin
      match cur.k_endings with
      | ending :: rest ->
          cur.k_endings <- rest;
          cur.k_ending <- ending;
          cur.k_emit_pure <- Wordrel.pure_mem cur.k_sum 0 init cur.k_q;
          cur.k_start_mixed <- Wordrel.mixed_mem cur.k_sum 0 init cur.k_q
      | [] ->
          let q = Wordrel.first_in_row cur.k_sum 0 init cur.k_s.ends (cur.k_q + 1) in
          if q < 0 then cur.k_done <- true
          else begin
            cur.k_q <- q;
            cur.k_endings <- Compiled.endings ct q
          end
    end
  done;
  !result

(* Every run counts against the tuple cap, before set semantics
   collapse repeats. *)
let eval ?(limits = Limits.none) s id =
  let g = Limits.start limits in
  let cur = cursor ~gauge:g s id in
  let rec drain r runs =
    match cursor_next cur with
    | None -> r
    | Some tuple ->
        Limits.check_tuples g (runs + 1);
        drain (Span_relation.add r tuple) (runs + 1)
  in
  drain (Span_relation.empty (Compiled.vars s.ct)) 0

let eval_doc ?limits s name = eval ?limits s (Doc_db.find s.db name)

let edit ?limits s name e =
  let id = Cde.materialize s.db name e in
  (id, eval ?limits s id)

let stats s =
  let l = Lru.stats s.cache in
  {
    hits = l.Lru.hits;
    misses = l.Lru.misses;
    evictions = l.Lru.evictions;
    entries = Lru.length s.cache;
    capacity = Lru.capacity s.cache;
    nodes_created = s.created;
  }

let reset_stats s = Lru.reset_stats s.cache
