(** Regular-spanner evaluation over SLP-compressed documents
    (§4.2, [39]).

    The engine combines the two ideas the paper describes:

    - {b matrices along the DAG}: for every SLP node [A], boolean
      matrices over the states of the compiled automaton record which
      state pairs are connected by reading 𝔇(A) — one matrix for
      marker-free runs ([Pure_A]) and one for runs that place at least
      one marker ([Mixed_A]), composed as [Pure_AB = Pure_A·Pure_B]
      and [Mixed_AB = Mixed_A·Full_B ∪ Pure_A·Mixed_B].
      Preprocessing is therefore O(|S|) matrix products — linear in
      the {e compressed} size, never in |𝔇(A)|.

    - {b enumeration by partial decompression}: a result tuple is
      produced by descending only into the nodes where its markers
      lie; marker-free stretches are skipped through the matrices.
      On a c-shallow SLP each of the ≤ 2k+1 descents costs O(log |D|)
      — the paper's O(log |D|) delay (§4.2).

    The engine is built on {!Spanner_core.Compiled}'s automaton and
    its summaries: each prepared node's pure and mixed matrices, with
    their transposes, are one block of a {!Spanner_util.Wordrel} slab —
    flat word buffers that the GC never scans and that never move —
    found through a node→slot array, so a node that is never prepared
    costs one word.  Each pair node is one call of the kernel's
    composition, which allocates nothing; on a deterministic automaton
    the pure matrix is a state map and only Mixed·Mixed is a general
    product.  Leaf blocks are shared per {e byte class} (bytes the
    spanner never separates share one block), and the bottom-up sweep
    is iterative, so arbitrarily deep SLPs cannot overflow the stack.
    Blocks are memoised per node: documents sharing nodes share
    preprocessing, and nodes created by CDE updates (§4.3) pay only for
    themselves.

    With a deterministic automaton — what
    {!Spanner_core.Compiled.of_evset} compiles unless its subset
    construction trips the cap — runs are bijective with result
    tuples, so enumeration is duplicate-free and {!cardinal} counts
    tuples.  On the automaton as built (the fallback), {!cursor} may
    repeat tuples and {!cardinal} counts runs; {!to_relation} and
    {!tuple_count} deduplicate and are exact either way.

    Concurrency: {!prepare} mutates the engine and must stay on one
    domain, but enumeration over prepared nodes only reads a frozen
    store snapshot ({!Slp.freeze}) and filled matrix slots, which a
    later {!prepare} never moves or rewrites — a batch sweeps once and
    then enumerates all documents in parallel
    ({!Spanner_engine.Plan.relations}), and serve drains one root's
    cursor while another request prepares the next. *)

open Spanner_core

type engine

(** [create e store] is [of_compiled (Compiled.of_evset e) store]: the
    engine runs the deterministic automaton unless the subset
    construction tripped its cap ({!nondeterministic}). *)
val create : Evset.t -> Slp.store -> engine

(** [of_compiled ct store] builds an engine on an existing compiled
    automaton, sharing its tables (no recompilation).  If [ct] is not
    deterministic ({!Spanner_core.Compiled.is_deterministic}),
    enumeration may visit a tuple once per run — {!to_relation} and
    {!Spanner_engine.Cursor.of_slp} deduplicate. *)
val of_compiled : Compiled.t -> Slp.store -> engine

(** [of_frozen ct fz] builds an engine directly over a frozen snapshot
    with no backing store — the entry point for mmapped arena views
    ({!Slp.frozen_of_columns}), where there is no [Slp.store] at all.
    The snapshot is never refreshed; ids beyond [Slp.frozen_size fz]
    do not exist.  Same enumeration caveats as {!of_compiled}. *)
val of_frozen : Compiled.t -> Slp.frozen -> engine

(** [vars engine] is the spanner's variable set. *)
val vars : engine -> Variable.Set.t

(** [prepare engine id] forces the summary block of every node
    reachable from [id] — the preprocessing phase, one kernel
    composition per new pair node, by iterative bottom-up sweep. *)
val prepare : engine -> Slp.id -> unit

(** [prepare_gauge g engine id] is {!prepare} metered by the caller's
    gauge: each node's matrix products charge [Compiled.states] steps.
    @raise Spanner_util.Limits.Spanner_error when the gauge trips
    (already-filled slots stay valid; the sweep is resumable). *)
val prepare_gauge : Spanner_util.Limits.gauge -> engine -> Slp.id -> unit

(** [nondeterministic engine] is [true] when the compiled automaton is
    not deterministic — i.e. when enumeration ({!cursor}) may
    visit a tuple once per accepting run and a streaming consumer that
    wants set semantics must deduplicate.  O(1): the compiled
    spanner's {!Spanner_core.Compiled.is_deterministic}, recorded at
    compilation. *)
val nondeterministic : engine -> bool

(** {2 Pull enumeration}

    The native constant-delay producer (Muñoz & Riveros).  A cursor is
    the suspended state of the run enumeration — an explicit frame
    stack over the parse tree plus the pick list of the run under
    construction — and each {!cursor_next} resumes it until the next
    run completes.  There is no fiber, no handler frame, and no
    per-pull context switch; delay between tuples is bounded by the
    descent work alone, which the per-node transposed rows reduce to
    word-parallel candidate scans ({!Spanner_util.Wordrel.first_split}).

    Runs come out in the same order as {!Spanner_incr.Incr.cursor}'s
    over the same store and automaton.  A cursor only reads prepared
    matrix slots and the frozen snapshot captured at creation: cursors
    on different roots may run on different domains, but creation
    requires the root to be prepared first. *)

type cursor

(** [cursor engine id] opens a pull cursor over ⟦e⟧(𝔇(id)).  O(1) in
    the document; the root must already be prepared.
    @raise Invalid_argument if [id] was never prepared. *)
val cursor : engine -> Slp.id -> cursor

(** [cursor_next c] is the next accepting run's tuple, or [None] when
    exhausted.  Duplicate-free iff the automaton is deterministic
    ({!nondeterministic}). *)
val cursor_next : cursor -> Span_tuple.t option

(** [cardinal engine id] counts accepting runs by dynamic programming
    over run counts — no enumeration, O(|S|·|Q|²) after preparation,
    with split states found by the same word scans as {!cursor}.
    Equals |⟦e⟧(𝔇(id))| when the automaton is deterministic.  Only
    reads a prepared engine (the memo lives for the call), so domains
    may count concurrently once [id] is prepared.
    @raise Spanner_util.Limits.Spanner_error [(Eval_failure _)] when
    the count exceeds [max_int] (never a wrapped value). *)
val cardinal : engine -> Slp.id -> int

(** [to_relation engine id] prepares [id] and drains its {!cursor}
    into a relation (set semantics: repeated runs collapse). *)
val to_relation : engine -> Slp.id -> Span_relation.t

(** [tuple_count ?limits engine id] is the number of result tuples
    |⟦e⟧(𝔇(id))|, exact on every engine: {!cardinal}'s dynamic program
    when the automaton is deterministic; otherwise ({!nondeterministic})
    the cardinality of {!to_relation}, O(runs) time and memory for the
    distinct tuples.  Prepares [id] first.  Under [limits], one gauge of
    its own meters the preparation and each run drawn (fuel and
    deadline; the tuple cap does not apply to a count).
    @raise Spanner_util.Limits.Spanner_error on a limit trip, or
    [(Eval_failure _)] when the count exceeds [max_int]. *)
val tuple_count : ?limits:Spanner_util.Limits.t -> engine -> Slp.id -> int

(** [matrices_computed engine] is the number of memoised node
    matrices, two (pure and mixed) per filled node, leaves included
    (preprocessing bookkeeping for the experiments). *)
val matrices_computed : engine -> int
