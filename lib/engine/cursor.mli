(** Streaming result cursors: every engine's answers as one pull
    protocol.

    The survey's headline complexity claim (§2.5, §4.2) is
    {e constant-delay enumeration after linear preprocessing}: results
    are meant to be streamed, not materialised.  This module makes the
    stream a first-class value.  A cursor yields the result tuples of
    one evaluation on demand — [next] resumes the underlying engine
    exactly where the previous tuple left it, so consuming the first
    [k] tuples performs O(k) engine pulls regardless of how many
    answers exist.

    Every pull is gauge-probed ({!Spanner_util.Limits.tick_tuple}):
    deadlines and tuple caps fire {e mid-stream}, between two tuples,
    with the same error taxonomy and counts as a materialising
    evaluation.  {!to_relation} is a thin fold, so draining a cursor
    gives the evaluation's relation exactly; {!Plan.relations} is that
    fold over every document of a batch.

    Constructors cover the three native engines, and all three are
    {e native pull producers}: {!of_compiled} walks
    {!Spanner_core.Compiled}'s trimmed product DAG (duplicate-free by
    construction), {!of_slp} resumes
    {!Spanner_slp.Slp_spanner.cursor}'s explicit enumeration machine
    over the prepared SLP matrices, and {!of_incr} resumes
    {!Spanner_incr.Incr.cursor}'s machine over cached summaries.  No
    constructor pays a fiber, an effect handler, or a per-pull context
    switch; the delay between two pulls is the engine's own descent
    work, nothing more.  When the underlying automaton is
    nondeterministic (the compiled spanner fell back to the automaton
    as built, {!Spanner_core.Compiled.is_deterministic}) the stream
    deduplicates on the fly so streamed
    counts agree with set semantics — and the dedup table itself is
    metered: every run it absorbs consumes a gauge step, so fuel
    budgets see the memory the stream retains. *)

open Spanner_core

type t

(** {1 Constructors} *)

(** [of_fun ~gauge ~vars pull] wraps a raw pull function ([pull ()]
    returns the next tuple or [None] at end of stream, and must keep
    returning [None] after that).  Every delivered tuple is counted
    against [gauge]: a stream operator passes its request's gauge. *)
val of_fun :
  gauge:Spanner_util.Limits.gauge -> vars:Variable.Set.t -> (unit -> Span_tuple.t option) -> t

(** [dedup_wrap gauge pull] is [pull] under set semantics: tuples
    already delivered are skipped.  Every pulled tuple, a skipped
    duplicate as much as a retained one, consumes one step of [gauge],
    since the table that remembers them is memory and work the budget
    must see. *)
val dedup_wrap :
  Spanner_util.Limits.gauge -> (unit -> Span_tuple.t option) -> unit -> Span_tuple.t option

(** [of_compiled ?gauge p] streams the tuples of a prepared document
    through {!Spanner_core.Compiled}'s native DAG cursor.
    Duplicate-free; constant delay per pull after preprocessing. *)
val of_compiled : ?gauge:Spanner_util.Limits.gauge -> Compiled.prepared -> t

(** [of_slp ?gauge engine id] streams ⟦e⟧(𝔇(id)) by partial
    decompression, resuming the native machine
    ({!Spanner_slp.Slp_spanner.cursor}) at every pull — delay is the
    descent work alone, independent of the decompressed length.  The
    matrices reachable from [id] must already be forced
    ({!Spanner_slp.Slp_spanner.prepare} / [prepare_gauge]) — the
    cursor only reads them, so cursors over different roots of one
    prepared engine are safe concurrently.  Deduplicates (metered)
    unless the engine's automaton is deterministic.
    @raise Invalid_argument if [id] was never prepared. *)
val of_slp : ?gauge:Spanner_util.Limits.gauge -> Spanner_slp.Slp_spanner.engine -> Spanner_slp.Slp.id -> t

(** [of_incr ?gauge session id] streams ⟦ct⟧(𝔇(id)) from the
    session's cached summaries, resuming the native machine
    ({!Spanner_incr.Incr.cursor}) at every pull; the same [gauge]
    meters summary misses, enumeration branches (the root summary is
    forced — and metered — at construction) and the per-pull probe.
    Deduplicates (metered) unless the compiled automaton is
    deterministic. *)
val of_incr : ?gauge:Spanner_util.Limits.gauge -> Spanner_incr.Incr.session -> Spanner_slp.Slp.id -> t

(** [of_relation r] streams an already-materialised relation (in
    {!Span_relation.tuples} order) — the degenerate cursor, for
    uniform plumbing. *)
val of_relation : Span_relation.t -> t

(** {1 Consuming} *)

(** [vars c] is the schema of the streamed tuples. *)
val vars : t -> Variable.Set.t

(** [next c] pulls the next tuple ([None] once exhausted, and forever
    after).  Each successful pull consumes one gauge step and probes
    the tuple cap at the running pull count
    ({!Spanner_util.Limits.tick_tuple}).
    @raise Spanner_util.Limits.Spanner_error mid-stream when the
    budget trips. *)
val next : t -> Span_tuple.t option

(** [peek c] is the next tuple without consuming it: the following
    {!next} returns the same tuple.  Pulls the engine (and meters) at
    most once per distinct tuple. *)
val peek : t -> Span_tuple.t option

(** [drop c k] discards up to [k] tuples (stops early at end of
    stream). *)
val drop : t -> int -> unit

(** [take c k] is a view delivering at most [k] further tuples of [c].
    The view shares the underlying stream: tuples it delivers are
    consumed from [c], and after it is exhausted [c] continues with
    the remainder.  No tuple beyond the [k]th is ever pulled from the
    engine. *)
val take : t -> int -> t

(** [iter c f] drains the remainder of [c], calling [f] on each
    tuple. *)
val iter : t -> (Span_tuple.t -> unit) -> unit

(** [fold c init f] folds [f] over the remainder of [c]. *)
val fold : t -> 'a -> ('a -> Span_tuple.t -> 'a) -> 'a

(** [cardinal c] counts the remaining tuples by draining [c]. *)
val cardinal : t -> int

(** [to_list c] drains [c] into a list, in stream order. *)
val to_list : t -> Span_tuple.t list

(** [to_relation c] drains [c] into a relation — the thin fold that
    recovers the materialising API on top of the stream. *)
val to_relation : t -> Span_relation.t

(** [pulls c] is the number of tuples pulled from the underlying
    engine so far (shared with {!take} views of the same stream) —
    the instrumentation behind the "[take k] never enumerates more
    than [k] tuples" guarantee. *)
val pulls : t -> int
