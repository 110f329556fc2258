(* The server's shared state: named queries, compiled-plan cache,
   document stores, decompressed-text cache.

   Reuse across requests is the whole point of serving (ROADMAP item
   1): a CLI invocation pays regex parse + Optimizer rewrite +
   automaton compilation + SLPDB load on every call, and everything
   it builds dies with the process.  Here each of those artefacts is
   built once and shared:

   - DEFINE binds a *name* to the normalized text of a parsed query.
     The compiled artefact lives in the plan cache, keyed by that
     normalized text (Algebra.to_string of the parsed expression) —
     so a named query, the same query re-DEFINEd under another name,
     and the same text sent inline all hit one cache entry, and
     repeated QUERY bodies skip parse + rewrite + fuse entirely: the
     cross-query plan cache.

   - LOAD builds a shared-SLP document store and freezes it
     (Slp.freeze): an immutable snapshot the worker domains read
     without locks.  Every LOAD refreshes the snapshot; queries
     always resolve against the snapshot current at admission time.

   - Query evaluation prefers the *compressed* domain: when a plan
     fused to a single automaton and the document's compression ratio
     makes it worthwhile, the request gets a native SLP cursor
     (Slp_spanner over the frozen snapshot) whose per-tuple delay is
     independent of the decompressed length — no decompression at
     all.  Whether a document is worthwhile is a fact of its root, so
     it is decided once per (store generation, shard, root), on the
     root's first query, and memoized in the store entry: SLP nodes
     never change once built, and a reload installs a new entry.  The
     prepared engines are themselves shared artefacts, cached per
     (query, store snapshot, shard) so repeat queries skip the matrix
     sweep.  Everything else falls back to the *decompressed* text
     through the compiled/optimized engines; the text is decompressed
     from the frozen snapshot once (metered by the requesting gauge)
     and kept in a bounded LRU keyed by (store, generation, doc, root
     id).  Root ids alone are not a safe key: LOAD DOC reuses one
     Doc_db whose ids are monotonic, but LOAD PATH installs a
     brand-new Doc_db whose ids restart from scratch, so a reloaded
     store could collide with cached entries from the snapshot it
     replaced.  The generation — bumped every time a store's Doc_db
     is (re)created — disambiguates, so stale text (or a stale
     engine) can never serve.  Engine keys add the shard index, since
     two shards of one manifest may number their roots alike and hold
     equally many nodes, and the snapshot's node count, because LOAD
     DOC refreshes a heap store's snapshot without bumping the
     generation.

   Plans are compiled under the server's *default* limits and fuse
   budget: compilation is a shared, cached artefact and must not vary
   per request (a per-request max-states override governs only that
   request's evaluation gauge).

   Locking: one registry mutex guards the name/store tables and each
   store's gate memo; the LRUs are Locked_lru and guard themselves;
   compilation, decompression and the gate's one-time walk run
   outside any lock. *)

open Spanner_core
module Limits = Spanner_util.Limits
module Locked_lru = Spanner_util.Locked_lru
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db
module Serialize = Spanner_slp.Serialize
module Arena = Spanner_store.Arena
module Corpus = Spanner_store.Corpus
module Optimizer = Spanner_engine.Optimizer
module Cursor = Spanner_engine.Cursor
module Plan = Spanner_engine.Plan
module Slp_spanner = Spanner_slp.Slp_spanner

(* A store is either heap-built (LOAD DOC compressions, or an SLPDB
   file deserialized into a fresh Doc_db) or a mapped arena corpus
   (LOAD PATH on a pack-built SLPAR1/SLPMF1 file): the file's columns
   *are* the frozen snapshot, nothing is deserialized, and the store
   is read-only — LOAD DOC into it is refused rather than silently
   copied to the heap. *)
type heap_backing = {
  db : Doc_db.t;
  mutable frozen : Slp.frozen;
  mutable docs : (string * Slp.id) list;  (* name -> designated root, insertion order *)
}

type backing = Heap of heap_backing | Mapped of Corpus.t

type store_entry = {
  backing : backing;
  gen : int;  (* bumped per backing (re)creation; text-cache key component *)
  gate : (int * Slp.id, bool) Hashtbl.t;
      (* (shard, root) -> the native-path decision, made by the first
         query of that root; guarded by the registry [mutex] *)
}

type t = {
  mutex : Mutex.t;
  named : (string, string) Hashtbl.t;  (* query name -> normalized text *)
  stores : (string, store_entry) Hashtbl.t;
  plans : (string, Optimizer.t) Locked_lru.t;  (* normalized text -> compiled plan *)
  texts : (string * int * string * Slp.id, string) Locked_lru.t;
  (* prepared native engines: (normalized query, store, gen, shard,
     snapshot node count) -> engine over that shard's frozen snapshot *)
  engines : (string * string * int * int * int, Slp_spanner.engine) Locked_lru.t;
  prep : Mutex.t;  (* serializes engine preparation (matrix sweeps) *)
  defaults : Limits.t;
  fuse_states : int option;
  mutable next_gen : int;  (* guarded by [mutex] *)
}

let create ?(plan_capacity = 128) ?(doc_capacity = 128) ?(engine_capacity = 32) ?fuse_states
    ~defaults () =
  {
    mutex = Mutex.create ();
    named = Hashtbl.create 16;
    stores = Hashtbl.create 16;
    plans = Locked_lru.create ~capacity:plan_capacity ();
    texts = Locked_lru.create ~capacity:doc_capacity ();
    engines = Locked_lru.create ~capacity:engine_capacity ();
    prep = Mutex.create ();
    defaults;
    fuse_states;
    next_gen = 0;
  }

let defaults t = t.defaults

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Per-request budgets: the server defaults with any per-request
   overrides applied axis-wise.  Overrides can only *tighten* — each
   axis is the min of the override and the server default — so a
   client cannot buy more fuel/time/states/tuples than the operator
   configured (Limits uses max_int as "unbounded", which min handles:
   an unbounded default accepts any override, a bounded one caps). *)
let effective_limits t (o : Protocol.opts) =
  let clamp dflt = function None -> dflt | Some v -> min v dflt in
  {
    Limits.fuel = clamp t.defaults.Limits.fuel o.Protocol.fuel;
    time_ms = clamp t.defaults.Limits.time_ms o.Protocol.deadline_ms;
    max_states = clamp t.defaults.Limits.max_states o.Protocol.max_states;
    max_tuples = clamp t.defaults.Limits.max_tuples o.Protocol.max_tuples;
  }

(* ------------------------------------------------------------------ *)
(* Queries and plans *)

(* A body is either a bare regex formula or an algebra expression.
   Bodies that use algebra syntax ([rgx:], [pi[], [sel[], [file:])
   parse as algebra; anything else tries the formula grammar first
   and falls back to algebra, re-raising the formula error if both
   fail (it is the more helpful one for a bare-formula typo).  Note
   [file:] leaves stay gated: the parser gets no loader, so a remote
   query cannot touch the server's filesystem. *)
let looks_like_algebra body =
  let has sub =
    let n = String.length body and m = String.length sub in
    let rec at i = i + m <= n && (String.sub body i m = sub || at (i + 1)) in
    at 0
  in
  has "rgx:" || has "file:" || has "pi[" || has "sel["

let parse_body body =
  if looks_like_algebra body then Algebra.parse body
  else
    match Regex_formula.parse body with
    | f -> Algebra.Formula f
    | exception (Spanner_fa.Regex.Parse_error _ as formula_err) -> (
        match Algebra.parse body with e -> e | exception _ -> raise formula_err)

let normalize body = Algebra.to_string (parse_body body)

let compile t normalized =
  Locked_lru.find_or_add t.plans normalized (fun () ->
      Optimizer.optimize ~limits:t.defaults ?fuse_states:t.fuse_states
        (Algebra.parse normalized))

let define t ~name ~body =
  let normalized = normalize body in
  let plan = compile t normalized in
  locked t (fun () -> Hashtbl.replace t.named name normalized);
  plan

(* [plan_normalized t source] resolves a query source to its
   normalized text and compiled plan: by name through the registry, or
   by normalizing the inline text — either way one plan-cache probe,
   so repeated bodies share work.  The normalized text is the key the
   caller needs to reach the other per-query caches (engines). *)
let plan_normalized t source =
  let normalized =
    match source with
    | Protocol.Named name ->
        locked t (fun () ->
            match Hashtbl.find_opt t.named name with
            | Some n -> n
            | None -> Limits.eval_failure ~what:"query" (Printf.sprintf "unknown query %S" name))
    | Protocol.Inline body -> normalize body
  in
  (normalized, compile t normalized)

let plan t source = snd (plan_normalized t source)

(* ------------------------------------------------------------------ *)
(* Stores and documents *)

let load_doc t ~store ~doc ~text =
  if String.length text = 0 then
    Limits.eval_failure ~what:"load" "SLPs derive non-empty documents";
  locked t (fun () ->
      let entry =
        match Hashtbl.find_opt t.stores store with
        | Some e -> e
        | None ->
            let db = Doc_db.create () in
            let gen = t.next_gen in
            t.next_gen <- gen + 1;
            let e =
              {
                backing = Heap { db; frozen = Slp.freeze (Doc_db.store db); docs = [] };
                gen;
                gate = Hashtbl.create 16;
              }
            in
            Hashtbl.add t.stores store e;
            e
      in
      match entry.backing with
      | Mapped _ ->
          Limits.eval_failure ~what:"load"
            (Printf.sprintf "store %S is a mapped arena (read-only); LOAD PATH a new one"
               store)
      | Heap h ->
          let id = Doc_db.add_string h.db doc text in
          h.frozen <- Doc_db.freeze h.db;
          h.docs <- List.remove_assoc doc h.docs @ [ (doc, id) ];
          (String.length text, Doc_db.compressed_size h.db))

(* first bytes of a pack-built file: arena "SLPAR1\n\x00" or shard
   manifest "SLPMF1\n" — anything else goes through the SLPDB reader *)
let packed_magic path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let head = really_input_string ic (min 6 (in_channel_length ic)) in
      head = "SLPAR1" || head = "SLPMF1")

let load_path t ~store ~path =
  let backing, ndocs =
    if packed_magic path then begin
      let c = Corpus.open_path path in
      (Mapped c, Corpus.doc_count c)
    end
    else begin
      let db = Serialize.read_file path in
      let docs = List.map (fun name -> (name, Doc_db.find db name)) (Doc_db.names db) in
      (Heap { db; frozen = Doc_db.freeze db; docs }, List.length docs)
    end
  in
  locked t (fun () ->
      (* a fresh backing restarts root ids from 0, so the replaced
         snapshot's cached texts would collide without a new gen *)
      let gen = t.next_gen in
      t.next_gen <- gen + 1;
      Hashtbl.replace t.stores store { backing; gen; gate = Hashtbl.create 16 });
  ndocs

(* [resolve_locked t ~store ~doc] is the store entry, frozen snapshot,
   shard and root of one document, as of now — the snapshot is
   immutable, so safe to evaluate against on any domain while later
   LOADs move the entry forward.  Caller holds [t.mutex]. *)
let resolve_locked t ~store ~doc =
  match Hashtbl.find_opt t.stores store with
  | None -> Limits.eval_failure ~what:"query" (Printf.sprintf "unknown store %S" store)
  | Some entry -> (
      let missing () =
        Limits.eval_failure ~what:"query"
          (Printf.sprintf "unknown document %S in store %S" doc store)
      in
      match entry.backing with
      | Heap h -> (
          match List.assoc_opt doc h.docs with
          | None -> missing ()
          | Some id -> (entry, h.frozen, 0, id))
      | Mapped c -> (
          (* the mapped columns are the snapshot: the frozen view
             reads the file in place, no deserialization *)
          match Corpus.find c doc with
          | None -> missing ()
          | Some (si, root) -> (entry, Arena.frozen_view (Corpus.shards c).(si), si, root)))

let doc_text t ~gauge ~store ~doc =
  let entry, frozen, _, id = locked t (fun () -> resolve_locked t ~store ~doc) in
  Locked_lru.find_or_add t.texts (store, entry.gen, doc, id) (fun () ->
      Slp.frozen_to_string ~gauge frozen id)

(* ------------------------------------------------------------------ *)
(* Native compressed-domain cursors *)

(* [reachable_within frozen id budget] is the number of nodes
   reachable from [id], or [None] as soon as the count exceeds
   [budget] — O(min(reachable, budget)) ids walked, so deciding that a
   document is too incompressible for the native path costs at most
   the node budget the planner's ratio threshold allows it, never a
   full-store walk.  (The whole-store node count is useless as a
   denominator: a store serving many documents dilutes every
   per-document ratio.)  Below the threshold the decompressed-text
   path, which also feeds the text LRU, wins. *)
let reachable_within frozen id budget =
  let seen = Hashtbl.create 256 in
  let count = ref 0 in
  let stack = ref [ id ] in
  let ok = ref true in
  while !ok && !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
        stack := rest;
        if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          incr count;
          if !count > budget then ok := false
          else
            match Slp.frozen_node frozen id with
            | Slp.Leaf _ -> ()
            | Slp.Pair (l, r) -> stack := l :: r :: !stack
        end
  done;
  if !ok then Some !count else None

(* [native_cursor t ~gauge ~normalized ~store ~doc plan] is a
   constant-delay cursor over the compressed document, or [None] when
   the request must fall back to decompressed text: the plan did not
   fuse to a single automaton, or the document's compression ratio is
   too low to be worth it.

   The ratio gate is decided once per (store generation, shard, root):
   the first query of a root walks it (outside the registry lock —
   racing misses compute the same bool) and records the decision in
   the store entry's [gate] table; every later query reads it under
   the one registry-lock acquisition [resolve_locked] already needs.
   That is sound because SLP nodes are immutable: heap stores are
   hash-consed and append-only (LOAD DOC adds nodes, never changes
   one), arenas are read-only mappings, and LOAD PATH installs a fresh
   entry, so the memo dies with the snapshot it describes.  A walk
   that raises (a corrupt arena column) records nothing, so the typed
   error repeats on every request.

   The engine (automaton × shard snapshot) is cached and its matrix
   sweep — metered by the requesting [gauge], resumable if it trips —
   runs under one preparation lock; after the sweep, the returned
   cursor only reads filled slots and the frozen snapshot, and a later
   sweep adds blocks without moving or rewriting filled ones, so it is
   safe to drain on any domain while later requests prepare other
   roots.  The shard index joins the engine key because two shards of
   one manifest can have equal node counts, and the snapshot node
   count because LOAD DOC refreshes a heap snapshot without bumping
   [gen]. *)
let native_cursor t ~gauge ~normalized ~store ~doc plan =
  match Optimizer.compiled plan with
  | None -> None
  | Some ct ->
      let entry, frozen, shard, id, memo =
        locked t (fun () ->
            let entry, frozen, shard, id = resolve_locked t ~store ~doc in
            (entry, frozen, shard, id, Hashtbl.find_opt entry.gate (shard, id)))
      in
      let native =
        match memo with
        | Some native -> native
        | None ->
            let budget =
              int_of_float (float_of_int (Slp.frozen_len frozen id) /. Plan.sweep_threshold)
            in
            let native = reachable_within frozen id budget <> None in
            locked t (fun () -> Hashtbl.replace entry.gate (shard, id) native);
            native
      in
      if not native then None
      else begin
        let engine =
          Locked_lru.find_or_add t.engines
            (normalized, store, entry.gen, shard, Slp.frozen_size frozen)
            (fun () -> Slp_spanner.of_frozen ct frozen)
        in
        Mutex.lock t.prep;
        (match Slp_spanner.prepare_gauge gauge engine id with
        | () -> Mutex.unlock t.prep
        | exception e ->
            Mutex.unlock t.prep;
            raise e);
        Some (Cursor.of_slp ~gauge engine id)
      end

(* ------------------------------------------------------------------ *)
(* Introspection *)

type counts = { queries : int; stores : int; docs : int }

let entry_docs = function
  | Heap h -> List.length h.docs
  | Mapped c -> Corpus.doc_count c

let counts t =
  locked t (fun () ->
      {
        queries = Hashtbl.length t.named;
        stores = Hashtbl.length t.stores;
        docs =
          Hashtbl.fold
            (fun _ (e : store_entry) acc -> acc + entry_docs e.backing)
            t.stores 0;
      })

type store_info = {
  sname : string;
  kind : string;  (* "heap" | "arena" *)
  sdocs : int;
  shards : int;
  mapped : int;  (* bytes of file mapping (0 for heap stores) *)
  resident : int;  (* bytes actually paged in (heap: frozen-snapshot size) *)
}

let stores_info t =
  let entries = locked t (fun () -> Hashtbl.fold (fun n e acc -> (n, e) :: acc) t.stores []) in
  (* resident_bytes reads /proc outside the registry lock *)
  List.sort compare
    (List.map
       (fun (sname, e) ->
         match e.backing with
         | Heap h ->
             {
               sname;
               kind = "heap";
               sdocs = List.length h.docs;
               shards = 1;
               mapped = 0;
               resident = Slp.frozen_bytes h.frozen;
             }
         | Mapped c ->
             {
               sname;
               kind = "arena";
               sdocs = Corpus.doc_count c;
               shards = Corpus.shard_count c;
               mapped = Corpus.mapped_bytes c;
               resident = Corpus.resident_bytes c;
             })
       entries)

type cache_stats = { hits : int; misses : int; evictions : int; entries : int; capacity : int }

let cache_stats lru =
  let s = Locked_lru.stats lru in
  {
    hits = s.Spanner_util.Lru.hits;
    misses = s.Spanner_util.Lru.misses;
    evictions = s.Spanner_util.Lru.evictions;
    entries = Locked_lru.length lru;
    capacity = Locked_lru.capacity lru;
  }

let plan_cache_stats t = cache_stats t.plans
let doc_cache_stats t = cache_stats t.texts
let engine_cache_stats t = cache_stats t.engines

(* one count per memoized (shard, root) of the current store entries:
   a running server's native share, by decision *)
type gate_stats = { native : int; fallback : int }

let gate_stats t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ (e : store_entry) acc ->
          Hashtbl.fold
            (fun _ native acc ->
              if native then { acc with native = acc.native + 1 }
              else { acc with fallback = acc.fallback + 1 })
            e.gate acc)
        t.stores { native = 0; fallback = 0 })
