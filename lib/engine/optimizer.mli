(** Cost-based algebraic optimization: fuse whole queries into one
    automaton.

    [Algebra.eval] is operator-at-a-time: every ∪/⋈/π node
    materialises a full intermediate relation.  But the Select-free
    fragment of the algebra is {e closed under automaton composition}
    (§2.2 — Peterfreund et al.'s complexity bounds for relational
    algebra over spanners make this the tractable evaluation route):
    union, join and projection compose symbolically through
    {!Spanner_core.Evset}, so a whole subtree can run as a single
    compiled automaton with one O(|doc|) document pass and streaming
    enumeration — no intermediate relation at all.

    {!optimize} turns an {!Spanner_core.Algebra.t} into a physical
    plan in three steps:

    + {b Rewrite}: projections are pushed below unions and joins
      (shrinking automaton variable sets before products are taken),
      π∘π collapses, trivial selections (≤ 1 in-schema variable) are
      dropped, and each string-equality selection moves towards the
      operand automaton it filters — but never into a Select-free
      subtree, which must stay whole so it can fuse.
    + {b Reorder}: each maximal ⋈-chain is flattened and re-ordered
      cheapest-first by sampled cardinality ({!Sample}: one bounded-
      prefix document pass per operand) when a sample document is
      given.  Joins are AC, so any order is correct.
    + {b Fuse, under a cost guard}: every maximal Select-free subtree
      is composed bottom-up into one {!Spanner_core.Evset.t} and
      compiled.  Before each symbolic join the planner prices the
      product — [size a · size b · join_branches a b] — and when the
      estimate exceeds the fuse budget ([min fuse_states
      limits.max_states]) that node {e falls back to materialised
      evaluation} (hash join over its operands' streams) instead of
      building the product.  The guard bounds construction work by
      checking estimates {e before} paying for them.  The estimate is
      an upper bound on the product as built, and the automaton that
      ships is smaller still once compilation determinises it: in the
      join that [explain --algebra] prints in [query.t], the estimate
      is 1177, the product as built has 101 states and 13 ship.

    Execution ({!cursor}) streams straight out of the fused automata
    through the {!Cursor} protocol.  Residual operators run as stream
    combinators: selections filter tuples through
    {!Spanner_util.Strhash} O(1) substring equality, projections and
    unions deduplicate on the fly, and only a guard-tripped or
    Select-blocked join materialises.  {!pp} prints the rewritten
    costed tree — per-node state estimates, sampled cardinalities and
    each fuse-vs-materialise decision — in the stable format the CLI's
    [explain --algebra] locks in cram. *)

open Spanner_core

type t

(** Default fuse budget: a fused subtree may cost at most this many
    product states before the guard falls back to materialisation. *)
val default_fuse_states : int

(** [optimize ?limits ?fuse_states ?sample e] plans [e].  [limits]
    governs leaf compilation and caps the fuse budget at its
    [max_states]; [sample] is a representative document (usually the
    one about to be queried) whose bounded prefix prices join operands
    and annotates the plan with cardinality estimates.
    @raise Spanner_util.Limits.Spanner_error when a {e leaf} automaton
    alone exceeds [limits] — there is nothing to fall back to. *)
val optimize : ?limits:Spanner_util.Limits.t -> ?fuse_states:int -> ?sample:string -> Algebra.t -> t

val original : t -> Algebra.t

(** [rewritten t] is the algebra expression after the rewrite passes —
    what the physical plan was built from. *)
val rewritten : t -> Algebra.t

(** [schema t] is the output variable set. *)
val schema : t -> Variable.Set.t

(** [threshold t] is the effective fuse budget in states. *)
val threshold : t -> int

(** [fused_count t] is the number of fused automata in the plan. *)
val fused_count : t -> int

(** [fully_fused t] holds when the whole query became one automaton —
    evaluation is then a single document pass plus enumeration. *)
val fully_fused : t -> bool

(** [compiled t] is the single fused automaton of a {!fully_fused}
    plan ([None] otherwise) — hand it to {!Plan.make} to route a whole
    algebra query through any engine/input shape. *)
val compiled : t -> Compiled.t option

(** [cursor ?limits t doc] streams ⟦t⟧(doc).  One gauge spans every
    fused document pass and all stream combinators; selections hash
    [doc] once, lazily. *)
val cursor : ?limits:Spanner_util.Limits.t -> t -> string -> Cursor.t

(** [eval ?limits t doc] drains {!cursor} into a relation. *)
val eval : ?limits:Spanner_util.Limits.t -> t -> string -> Span_relation.t

(** [pp ppf t] prints the rewritten expression and the costed plan
    tree (stable across runs given the same inputs). *)
val pp : Format.formatter -> t -> unit
