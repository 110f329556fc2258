(** Compiled evaluation engine: two-phase enumeration of regular
    spanners (§2.5), with all spanner-only work done once.

    Evaluation splits into a preprocessing pass over the document and
    output of the tuples with delay independent of the document
    length.  Every fact that depends only on the spanner — {e combined}
    complexity in the sense of §2.5 ([10], [39]) — is hoisted into a
    one-time compilation ({!of_evset}):

    - the automaton is interned ({!Evset.intern}): marker-set labels
      become dense ids, and the 256 bytes collapse into the few classes
      the spanner can distinguish ({!Spanner_fa.Charset.byte_classes});
    - it is determinised by the subset construction, one step per byte
      class and capped at its own state count (a blow-up keeps the
      automaton as built; {!is_deterministic} records which).

    A compiled spanner is that interned automaton: per state, its set
    arcs as (label id, target) rows and, per byte class, its letter
    targets.

    The per-document pass ({!prepare}) determinises the automaton's
    extended form {e on the document} — the product of document
    positions and state subsets — trims it to useful nodes, and
    compresses markerless chains with jump pointers.  Its subsets come
    from the same subset table as compile-time determinisation
    ({!Evset.subsets}), built afresh per document, with each subset's
    set-arc row memoised as an array.  The DAG itself is int columns:
    nodes are numbered as discovered, so the node index is the FIFO of
    the breadth-first build, and a node's actions are a contiguous run
    of (label, target) cells.  A backward pass over the indices computes
    usefulness, path counts and jump pointers.
    On a deterministic automaton every subset is a single state.  Every
    maximal path of the trimmed DAG is one result tuple, so the
    {!cursor} walk needs no duplicate elimination; it walks action
    indices on an int stack and allocates only the tuples it returns.

    This module is the one way into that engine: compile with
    {!of_evset}, preprocess with {!prepare}, then pull tuples with
    {!cursor}/{!cursor_next} or collect them with {!eval}.

    Compiled spanners are immutable after {!of_evset} (each {!prepare}
    builds its own subset table), so one compiled spanner may be shared
    by concurrent domains: batches of documents (the document-database
    workload of §4, one spanner and many documents) fan out through
    {!Spanner_engine.Plan.relations}. *)

type t
(** A compiled spanner: the shipped interned automaton, shareable across
    domains. *)

(** [of_evset ?limits e] compiles [e] once — combined complexity,
    independent of any document.

    It determinises [e] by the subset construction, one step per byte
    class ({!Evset.intern}, then {!Evset.determinize_interned}), under
    a cap of [Evset.size e] subsets: the deterministic
    automaton is compiled when it has no more states than [e], so
    every result tuple has exactly one accepting run
    ({!is_deterministic}).  When a subset beyond the cap turns up (at
    most [Evset.size e] subsets are built first), [e] is compiled as
    built instead, and engines that enumerate runs rather than subsets
    — {!Spanner_slp.Slp_spanner} and {!Spanner_incr.Incr} — keep
    deduplicating.  Either way the compiled automaton has at most
    [Evset.size e] states, and enumeration by {!cursor} returns the
    same tuples in the same order.

    Under [limits], [e]'s state count is checked against the state
    cap before [e] is interned
    ({!Spanner_util.Limits.Spanner_error} with
    [Limit_exceeded {which = States; _}] on violation), and the
    interning and subset work draws on one gauge's fuel and deadline;
    those trips are errors, never a fallback. *)
val of_evset : ?limits:Spanner_util.Limits.t -> Evset.t -> t

(** [of_formula ?limits f] is [of_evset ?limits (Evset.of_formula
    ?limits f)] — the limits also govern the formula-to-automaton
    construction. *)
val of_formula : ?limits:Spanner_util.Limits.t -> Regex_formula.t -> t

(** {1 Accessors (bench/CLI introspection, and the SLP and incremental
    engines)} *)

val vars : t -> Variable.Set.t

(** [states ct] is the number of automaton states. *)
val states : t -> int

(** [is_deterministic ct] tells whether {!of_evset}'s subset
    construction fit under its cap, so that [ct] runs the deterministic
    automaton and every result tuple has exactly one run; [false]
    means the automaton as built.  O(1): recorded at compilation. *)
val is_deterministic : t -> bool

(** [describe ct] is the one-line summary that [explain], the CLI and
    serve print: states and whether the automaton is deterministic or
    fell back to the automaton as built, byte classes, and marker-set
    labels. *)
val describe : t -> string

(** [classes ct] is the number of byte classes (≤ 256). *)
val classes : t -> int

(** [initial ct] is the initial state. *)
val initial : t -> int

(** [iter_set_arcs ct q f] applies [f label_id dst] to each set arc
    leaving [q], in row order. *)
val iter_set_arcs : t -> int -> (int -> int -> unit) -> unit

(** [class_of_char ct c] is the byte class of [c] (see {!classes}). *)
val class_of_char : t -> char -> int

(** [ending_states ct] is the set of states that close a run: final
    states, and states with a set arc into a final state (the marker
    set placed at the trailing boundary). *)
val ending_states : t -> Spanner_util.Wordrel.row

(** [endings ct q] lists the ways a run that reached [q] closes, in the
    order the SLP engines emit them: the trailing set arcs into a final
    state, by label in reverse row order, then [-1] (no trailing set
    arc) when [q] is final itself. *)
val endings : t -> int -> int list

(** {1 Decoding runs}

    Every engine that enumerates runs over this automaton collects a
    run's set arcs as picks — (0-based boundary, label id) pairs in
    boundary order — and decodes them into its tuple here. *)

type picks
(** A growable stack of picks in two int columns, with the decoder's
    scratch: pushing allocates nothing once the columns have grown. *)

(** [picks ct] is an empty pick stack for runs of [ct]. *)
val picks : t -> picks

val picks_length : picks -> int
val push_pick : picks -> int -> int -> unit

(** [truncate_picks pk k] drops every pick but the first [k]. *)
val truncate_picks : picks -> int -> unit

(** [tuple_of_picks ct pk at lbl] decodes the run whose picks are [pk],
    followed by the pick [(at, lbl)] when [lbl >= 0] (the
    trailing-boundary set arc of an ending state). *)
val tuple_of_picks : t -> picks -> int -> int -> Span_tuple.t

(** {1 Per-factor transition summaries}

    The behaviour of the compiled automaton over one document factor,
    as a pair of boolean state×state relations: [pure] relates [p] to
    [q] when some run over the factor from [p] to [q] reads letters
    only; [mixed] when some such run also takes at least one set arc
    (placing markers).  Summaries are blocks of a
    {!Spanner_util.Wordrel} slab and form a monoid under
    {!Spanner_util.Wordrel.compose}, with {!add_class_summary} on single
    characters — exactly the shape needed to evaluate a spanner
    bottom-up over an SLP and to reuse cached summaries of shared nodes
    under complex document editing (§4.2–4.3; {!Spanner_slp.Slp_spanner}
    and {!Spanner_incr.Incr} build on these).  The slab is functional —
    pure kept as a state map — exactly when {!is_deterministic} holds. *)

(** [summaries ct k] is an empty slab for summaries of [ct], whose
    first chunk holds [k] of them. *)
val summaries : t -> int -> Spanner_util.Wordrel.t

(** [add_class_summary ct slab cls] adds to [slab] the summary of a
    one-character factor of byte class [cls] (every byte of a class has
    the same one), and returns its slot: the letter step, and one
    optional preceding set arc for the mixed part.
    @raise Invalid_argument if [cls] is not a class of [ct]. *)
val add_class_summary : t -> Spanner_util.Wordrel.t -> int -> int

(** {1 Per-document preprocessing and enumeration} *)

type prepared

(** [prepare ?limits ct doc] runs the data-complexity pass: O(|doc|)
    subset-table lookups for a fixed spanner, producing the trimmed
    product DAG.  Under [limits], each product node consumes one unit
    of fuel and the wall-clock deadline is probed every ~4K nodes, so
    an oversized document fails with [Limit_exceeded] instead of
    running away. *)
val prepare : ?limits:Spanner_util.Limits.t -> t -> string -> prepared

(** [prepare_with_gauge g ct doc] is {!prepare} drawing on the
    caller's running gauge instead of starting a fresh one — so one
    budget can span preprocessing {e and} the enumeration that follows
    (the contract of {!eval}, exposed for streaming pipelines that
    enumerate through a {!cursor}). *)
val prepare_with_gauge : Spanner_util.Limits.gauge -> t -> string -> prepared

(** [prepared_vars p] is the variable set of the spanner [p] was
    prepared from (the schema of the enumerated tuples). *)
val prepared_vars : prepared -> Variable.Set.t

(** [cardinal p] is the number of result tuples, O(1) after
    preparation (path counts are accumulated during the trim pass).
    @raise Spanner_util.Limits.Spanner_error [(Eval_failure _)] when the
    count exceeds [max_int] (preparing and enumerating still work). *)
val cardinal : prepared -> int

(** Preprocessing statistics; O(1) — counts are recorded at
    {!prepare} time. *)
type stats = {
  nodes : int;  (** useful product nodes *)
  edges : int;  (** useful product edges *)
  boundaries : int;  (** |doc| + 1 *)
}

val stats : prepared -> stats

(** {1 Pull-based enumeration}

    The native cursor over the trimmed product DAG: each {!cursor_next}
    resumes the duplicate-free depth-first walk exactly where the last
    tuple left it, so the first [k] tuples cost O(k) pulls after
    preprocessing — the paper's constant-delay claim (§2.5) as an
    incremental API.  {!eval} drains the same walk, and the streaming
    layer ({!Spanner_engine.Cursor}) wraps it. *)

type cursor

(** [cursor p] starts a fresh walk over [p] (cheap; no enumeration
    happens until the first pull). *)
val cursor : prepared -> cursor

(** [cursor_next c] is the next result tuple, or [None] once the walk
    is exhausted (and forever after). *)
val cursor_next : cursor -> Span_tuple.t option

(** {1 Whole-document evaluation} *)

(** [eval ?limits ct doc] is ⟦ct⟧(doc) through prepare + enumerate.
    One gauge spans both phases (fuel and deadline are shared), and
    the collected relation is capped at [limits.max_tuples]. *)
val eval : ?limits:Spanner_util.Limits.t -> t -> string -> Span_relation.t
