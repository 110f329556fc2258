(** The server's shared state: named queries, the cross-query plan
    cache, document stores, the decompressed-text cache, and the
    prepared-engine cache for compressed-domain evaluation.

    Everything a CLI run rebuilds per invocation is built once here
    and shared across requests and connections.  Compiled plans are
    keyed by the {e normalized} query text
    ({!Spanner_core.Algebra.to_string} of the parsed expression), so
    repeated inline bodies, re-DEFINEs, and named references to the
    same query all share one cache entry.  Stores are frozen SLP
    snapshots ({!Spanner_slp.Slp.freeze}) that worker domains read
    without locks.

    All operations are thread- and domain-safe; parsing, plan
    compilation and decompression run outside the registry lock. *)

type t

(** [create ?plan_capacity ?doc_capacity ?engine_capacity
    ?fuse_states ~defaults ()] is an empty registry.  [defaults] are
    the server-side budgets: plans are compiled under them, and
    {!effective_limits} starts from them.  [fuse_states] is the
    optimizer's fusion budget (default
    {!Spanner_engine.Optimizer.default_fuse_states});
    [engine_capacity] bounds the prepared-engine cache (default 32 —
    engines hold per-node matrices, much heavier than plans). *)
val create :
  ?plan_capacity:int ->
  ?doc_capacity:int ->
  ?engine_capacity:int ->
  ?fuse_states:int ->
  defaults:Spanner_util.Limits.t ->
  unit ->
  t

val defaults : t -> Spanner_util.Limits.t

(** [effective_limits t opts] is [defaults] with any per-request
    overrides from [opts] applied axis-wise.  Overrides can only
    tighten: each axis is the minimum of the override and the server
    default, so clients cannot exceed operator-configured budgets. *)
val effective_limits : t -> Protocol.opts -> Spanner_util.Limits.t

(** [define t ~name ~body] parses [body] (regex formula, falling back
    to algebra), compiles it through the plan cache, and binds [name]
    to the normalized text.  Returns the compiled plan.
    @raise Spanner_util.Limits.Spanner_error ([Parse]) on a body
    neither grammar accepts. *)
val define : t -> name:string -> body:string -> Spanner_engine.Optimizer.t

(** [plan t source] is the compiled plan of a query source — a
    registry name or inline text — via one plan-cache probe.
    @raise Spanner_util.Limits.Spanner_error ([Eval_failure]) on an
    unknown name. *)
val plan : t -> Protocol.source -> Spanner_engine.Optimizer.t

(** [plan_normalized t source] is {!plan} returning also the
    normalized query text — the key callers need to reach the other
    per-query caches ({!native_cursor}). *)
val plan_normalized : t -> Protocol.source -> string * Spanner_engine.Optimizer.t

(** [load_doc t ~store ~doc ~text] compresses [text] into [store]
    (created on first use) as document [doc] and refreshes the frozen
    snapshot.  Returns [(uncompressed_len, compressed_size)] of the
    store after the load.
    @raise Spanner_util.Limits.Spanner_error ([Eval_failure]) on an
    empty [text] or when [store] is a mapped arena (read-only). *)
val load_doc : t -> store:string -> doc:string -> text:string -> int * int

(** [load_path t ~store ~path] replaces [store] with the file at
    [path] (server filesystem).  The file's magic decides the
    backing: a pack-built arena ([SLPAR1]) or shard manifest
    ([SLPMF1]) is memory-mapped in place — O(1) in corpus size, zero
    deserialization, read-only — while an SLPDB file is deserialized
    into a fresh heap store.  Returns the number of documents. *)
val load_path : t -> store:string -> path:string -> int

(** [doc_text t ~gauge ~store ~doc] is the decompressed text of one
    document, through the text cache; a miss decompresses from the
    current frozen snapshot, charged to [gauge]. *)
val doc_text :
  t -> gauge:Spanner_util.Limits.gauge -> store:string -> doc:string -> string

(** [native_cursor t ~gauge ~normalized ~store ~doc plan] is a
    constant-delay streaming cursor over the {e compressed} document —
    no decompression at any point — or [None] when the request must
    fall back to {!doc_text} + the optimizer cursor: the plan did not
    fuse to a single automaton
    ({!Spanner_engine.Optimizer.compiled} is [None]), or the
    document's compression ratio (derived length over {e reachable}
    node count, decided by a budgeted walk that stops as soon as the
    answer is known) is below the break-even threshold.  The ratio is
    decided once per (store generation, shard, root), on the root's
    first query, and read from the store's memo afterwards; a walk
    that raises is not memoized.  The prepared engine is cached per
    (normalized query, store snapshot, shard); the matrix sweep on
    a miss — or the incremental sweep when a LOAD added nodes — is
    charged to [gauge] and serialized under one preparation lock,
    after which the cursor only reads immutable state and may be
    drained on any domain.  Tuple order may differ from the
    decompressed path (runs are enumerated grammar-wise, not
    left-to-right), but the tuple {e set} is identical.
    @raise Spanner_util.Limits.Spanner_error when [gauge] trips during
    the sweep (completed matrices are kept; a retry resumes). *)
val native_cursor :
  t ->
  gauge:Spanner_util.Limits.gauge ->
  normalized:string ->
  store:string ->
  doc:string ->
  Spanner_engine.Optimizer.t ->
  Spanner_engine.Cursor.t option

(** {1 Introspection} *)

type counts = { queries : int; stores : int; docs : int }

val counts : t -> counts

(** One line of [STATS] per store: what backs it and what it costs. *)
type store_info = {
  sname : string;
  kind : string;  (** ["heap"] or ["arena"] *)
  sdocs : int;
  shards : int;  (** arena shard count (heap stores report 1) *)
  mapped : int;  (** bytes of file mapping; 0 for heap stores *)
  resident : int;
      (** bytes actually paged in (arena: Rss of the mapping from
          /proc; heap: the frozen-snapshot footprint estimate) *)
}

(** [stores_info t] describes every store, sorted by name.  Reads
    /proc outside the registry lock. *)
val stores_info : t -> store_info list

type cache_stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

val plan_cache_stats : t -> cache_stats
val doc_cache_stats : t -> cache_stats
val engine_cache_stats : t -> cache_stats

(** The native-path gate's memo: how many (shard, root) pairs of the
    current stores have been decided, by decision ({!native_cursor}
    decides each root once, on its first query). *)
type gate_stats = { native : int; fallback : int }

val gate_stats : t -> gate_stats
