(** Incremental evaluation: spanner results that survive CDE edits
    (§4.3, [40]; "Dynamic Complexity of Document Spanners").

    The compiled engine ({!Spanner_core.Compiled}) re-runs its full
    per-document pass after every edit, although a complex document
    edit over a strongly balanced SLP creates only O(|φ|·log d) new
    nodes — all the structure below those nodes is shared with the
    pre-edit document.  This module caches, per (compiled spanner, SLP
    node), the node's transition summary (the state→state behaviour of
    the automaton over the node's derived factor: a one-block
    {!Spanner_util.Wordrel} slab, {!Spanner_core.Compiled.summaries}),
    so that evaluating
    a spanner on a document reduces to combining cached summaries
    bottom-up; after an edit, only the freshly created nodes are ever
    computed, and re-evaluation costs O(new nodes · states³/word)
    plus the output.  Summaries compose with the same kernel as the
    SLP engine's sweep ({!Spanner_util.Wordrel.compose}); a summary
    stays valid for a cursor that holds it even after the LRU evicts
    it.

    A {!session} binds one compiled spanner to one document database
    and holds a bounded LRU cache ({!Spanner_util.Lru}) keyed by node
    id.  Because the database's documents share nodes of one store
    (Figure 1: A1, A2 and A3 share almost everything), a single cache
    serves every document — evaluating A3 after A1 is pure cache
    hits.  A node-creation hook ({!Spanner_slp.Slp.on_new_node})
    counts the nodes each edit creates and drops any stale cache entry
    under a fresh id.

    Evaluation enumerates runs through the summary matrices exactly
    like {!Spanner_slp.Slp_spanner} (§4.2), but over the compiled
    tables and the shared cache, with one pull machine ({!cursor})
    that finds split states by the same word scans.
    {!eval} collects its runs into a relation, so the automaton as
    built — compiled when {!Spanner_core.Compiled.of_evset}'s subset
    construction trips its cap, and able to yield the same tuple along
    several runs — is handled by set semantics. *)

open Spanner_core
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde

type session

(** Cache statistics: LRU counters plus the session-lifetime node
    creation count (every node the store created since {!create},
    whether or not an edit of this session caused it). *)
type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** summaries currently cached *)
  capacity : int;
  nodes_created : int;
}

(** [create ?cache_capacity ct db] is a session evaluating [ct] over
    the documents of [db], with a summary cache of at most
    [cache_capacity] nodes (default 65536). *)
val create : ?cache_capacity:int -> Compiled.t -> Doc_db.t -> session

val compiled : session -> Compiled.t
val database : session -> Doc_db.t

(** [nondeterministic s] is [true] when the compiled automaton is not
    deterministic — enumeration ({!cursor}) may then
    repeat tuples and set-semantics consumers must deduplicate.
    O(1): {!Spanner_core.Compiled.is_deterministic}. *)
val nondeterministic : session -> bool

(** [eval ?limits s id] is ⟦ct⟧(𝔇(id)), computed from cached
    summaries by draining a {!cursor}; only nodes missing from the
    cache are (recursively) summarised.  Under [limits], every summary
    miss and every node descent of the run enumeration consumes fuel,
    the deadline is probed periodically, and every enumerated run
    counts against the tuple cap — an over-approximation of the
    distinct-tuple count when the compiled automaton is
    nondeterministic ({!Spanner_util.Limits.Spanner_error} on
    violation — the cache keeps whatever summaries were completed, so
    a retry under a larger budget resumes the work already paid
    for). *)
val eval : ?limits:Spanner_util.Limits.t -> session -> Slp.id -> Span_relation.t

(** {2 Pull enumeration}

    The same explicit machine as {!Spanner_slp.Slp_spanner.cursor},
    over cached summaries, with the same emission order on the same
    store and automaton. *)

type cursor

(** [cursor ?gauge s id] opens a pull cursor over the accepting runs
    of 𝔇(id).  Summaries missing from the cache are computed (and
    metered) lazily as the descent reaches them; [gauge] meters every
    node descent and summary miss (one unit each), so budgets fire
    mid-stream.  The session's cache and store are shared
    mutable state: pulls must stay on the session's domain. *)
val cursor : ?gauge:Spanner_util.Limits.gauge -> session -> Slp.id -> cursor

(** [cursor_next c] is the next run's tuple, or [None] when exhausted.
    Duplicate-free iff the automaton is deterministic
    ({!nondeterministic}). *)
val cursor_next : cursor -> Span_tuple.t option

(** [eval_doc ?limits s name] is [eval] on the designated document
    [name].
    @raise Not_found on unknown names. *)
val eval_doc : ?limits:Spanner_util.Limits.t -> session -> string -> Span_relation.t

(** [edit ?limits s name e] applies the CDE-expression [e], designates
    the result as document [name] ({!Cde.materialize}), and returns
    the new node together with its re-evaluated relation (metered by
    [limits] as in {!eval}).  Cost: the edit (O(|e|·log d) new nodes)
    + fresh summaries for exactly those nodes + output enumeration.
    @raise Invalid_argument on out-of-range positions (with the
    offending positions), [Not_found] on unknown document names. *)
val edit : ?limits:Spanner_util.Limits.t -> session -> string -> Cde.t -> Slp.id * Span_relation.t

val stats : session -> stats

(** [reset_stats s] zeroes hit/miss/eviction counters (cache contents
    are kept — the point of measuring a warm re-evaluation). *)
val reset_stats : session -> unit
