(** Extended vset-automata (§2.2 Option 2, [10]).

    Factors of consecutive markers are represented as marker *sets*:
    an extended automaton has letter arcs labelled by character classes
    and set arcs labelled by non-empty marker sets; a run over a
    document takes, at each boundary, at most one set arc, then a
    letter arc.  Accepted "extended words" — a marker set per boundary,
    interleaved with the document's letters — are in bijection with
    (document, span-tuple) pairs, which resolves the marker-order
    ambiguity of plain vset-automata once and for all: all evaluation,
    decision, and enumeration algorithms in this library run on this
    form.

    Invariant maintained by every constructor here: no ∅-labelled set
    arcs (they are composed away into letter arcs and finals), so runs
    correspond exactly to canonical extended words. *)

type state = int

type t

(** {1 Conversion and construction} *)

(** [of_vset ?limits v] computes, for every state, the marker-set
    closure of its ε/marker paths (each marker at most once per
    boundary — soundness of [v] guarantees at most once globally) and
    produces the equivalent extended automaton.  Worst-case
    exponential in the number of variables, linear in practice for
    spanners with few variables (data complexity is unaffected, cf.
    §2.5).  Under [limits], the state count is checked against the
    state cap up front and every closure step consumes fuel, so a
    pathological formula raises
    {!Spanner_util.Limits.Spanner_error}[ (Limit_exceeded _)] instead
    of exhausting memory. *)
val of_vset : ?limits:Spanner_util.Limits.t -> Vset.t -> t

(** [of_formula ?limits f] is [of_vset ?limits (Vset.of_formula f)]. *)
val of_formula : ?limits:Spanner_util.Limits.t -> Regex_formula.t -> t

(** [determinize ?limits e] is the deterministic extended
    vset-automaton of [10]: for every state, at most one successor per
    marker-set label and per character.  Accepted extended words are
    unchanged, but runs become unique per word — the property that
    duplicate-free enumeration over SLPs and run counting in the
    weighted semantics rely on.  It is {!intern} followed by
    {!determinize_interned} with no cap, the construction
    {!Compiled.of_evset} runs on every automaton it compiles.
    Worst-case exponential in |e| (irrelevant in data complexity,
    §2.5); under [limits] each subset counts against the state cap and
    the work consumes fuel. *)
val determinize : ?limits:Spanner_util.Limits.t -> t -> t

(** [is_deterministic e] checks the determinism property. *)
val is_deterministic : t -> bool

(** {1 Interned form}

    The automaton over dense alphabets, as the subset construction and
    {!Compiled.of_evset} consume it: marker-set labels numbered in the
    order the states' set arcs first use them, and the 256 bytes
    collapsed into the classes the letter arcs separate
    ({!Spanner_fa.Charset.byte_classes}). *)

type interned = {
  states : int;
  start : int;
  accepting : bool array;  (** per state *)
  labels : Marker.Set.t array;  (** label id → marker set *)
  nclasses : int;
  class_of : int array;  (** byte → class, 256 entries *)
  set_rows : (int * int) list array;
      (** per state, its set arcs as (label id, target) in arc order *)
  cells : int list array;
      (** per (state × nclasses + class), the sorted distinct letter
          targets *)
}

(** [intern g e] is [e] over dense ids; it charges [g] one step per
    (state, class) cell. *)
val intern : Spanner_util.Limits.gauge -> t -> interned

(** {1 The subset table}

    The subset construction, written once and driven from both sides:
    {!determinize_interned} expands it breadth-first at compile time,
    and {!Compiled.prepare} reads it along a document.  Subsets of an
    interned automaton's states are numbered from 0 in the order they
    are met; subset 0 is the start state alone.  Each fact below is
    computed once per subset and memoised. *)

type subsets

(** [subsets a] is the table over [a], holding subset 0 only. *)
val subsets : interned -> subsets

(** [set_row t d] is subset [d]'s set arcs grouped by label: each label
    once, in the order subset [d]'s states (ascending) first use it,
    paired with the subset of its targets, as [[| label; target; label;
    target; ... |]].  The row is computed once; do not mutate it. *)
val set_row : subsets -> int -> int array

(** [step t d cls] is the subset of letter targets of subset [d] under
    byte class [cls], or [-1] when it is empty. *)
val step : subsets -> int -> int -> int

(** [accepts t d] tells whether subset [d] holds an accepting state. *)
val accepts : subsets -> int -> bool

(** [determinize_interned g ~cap a] runs the subset construction on
    [a], one step per byte class, and is [None] as soon as a subset
    beyond the first [cap] turns up.  Labels and classes are [a]'s.
    It expands {!subsets} breadth-first, and state [d] of the result
    is subset [d] with {!set_row} as its set arcs, so enumeration over
    both automata yields the same tuples in the same order.  The work
    is charged to [g] ([classes] steps per member state of each
    expanded subset), and each subset is checked against [g]'s state
    cap: fuel, deadline and [max_states] trips raise
    {!Spanner_util.Limits.Spanner_error}, while [cap] only gives
    [None]. *)
val determinize_interned :
  Spanner_util.Limits.gauge -> cap:int -> interned -> interned option

(** [to_vset e] is the inverse of {!of_vset}: each set arc becomes a
    chain of marker arcs *in the canonical marker order* — this is the
    normalisation of §2.2 Option 1 (fix an order on markers and require
    consecutive markers to respect it).  [of_vset (to_vset e)] denotes
    the same spanner as [e]. *)
val to_vset : t -> Vset.t

(** {1 Accessors} *)

val size : t -> int
val initial : t -> state
val is_final : t -> state -> bool
val vars : t -> Variable.Set.t

(** [iter_set_arcs e q f] applies [f set dst] to each set arc
    (labels are non-empty). *)
val iter_set_arcs : t -> state -> (Marker.Set.t -> state -> unit) -> unit

(** [iter_letter_arcs e q f] applies [f cs dst] to each letter arc. *)
val iter_letter_arcs : t -> state -> (Spanner_fa.Charset.t -> state -> unit) -> unit

(** {1 The algebra, on automata (§1, §2.3)}

    These implement the spanner algebra *symbolically*, i.e. without a
    document: union, projection and natural join of regular spanners
    are again regular (the closure results of [9] discussed in §2.2).
    String-equality selection is *not* closed for regular spanners —
    that is the whole point of §2.3/§3 — and therefore lives in
    {!Core_spanner}. *)

(** [union a b] denotes D ↦ ⟦a⟧(D) ∪ ⟦b⟧(D). *)
val union : t -> t -> t

(** [project keep e] denotes π_keep ∘ ⟦e⟧. *)
val project : Variable.Set.t -> t -> t

(** [join a b] denotes the natural join ⟦a⟧ ⋈ ⟦b⟧: the synchronised
    product that agrees on shared-variable markers boundary-wise and
    interleaves private markers. *)
val join : t -> t -> t

(** [join_branches a b] is the number of synchronised products {!join}
    would union: one per guess of which {e possibly-unbound} shared
    variables each side leaves unbound (schemaless semantics), so
    [2^(opt_a + opt_b)] — and 1 whenever every shared variable is
    bound on every run.  Each product has at most
    [size a * size b] states, which makes
    [join_branches a b * size a * size b] the state-blowup estimate a
    cost-based planner can check {e before} paying for the product. *)
val join_branches : t -> t -> int

(** [rename_vars f e] renames every variable [x] to [f x]; [f] must be
    injective on [vars e].
    @raise Invalid_argument otherwise. *)
val rename_vars : (Variable.t -> Variable.t) -> t -> t

(** [duplicate_var e x x'] makes [x'] a shadow of [x]: wherever a
    marker of [x] is read, the same marker of [x'] is read in the same
    boundary set, so every output tuple binds [x'] to exactly the span
    of [x].  Used by the core-simplification construction (§2.3) to
    make string-equality selections act on private copies of visible
    variables.
    @raise Invalid_argument if [x'] already occurs or [x] does not. *)
val duplicate_var : t -> Variable.t -> Variable.t -> t

(** {1 Decision procedures (§2.4)} *)

(** [accepts_tuple e doc t] decides t ∈ ⟦e⟧(doc) — the ModelChecking
    problem for regular spanners — in time O(|doc| · |e|). *)
val accepts_tuple : t -> string -> Span_tuple.t -> bool

(** [nonempty_on e doc] decides ⟦e⟧(doc) ≠ ∅ by treating set arcs as
    free boundary moves (the ε-interpretation of §3.3), in time
    O(|doc| · |e|). *)
val nonempty_on : t -> string -> bool

(** [satisfiable e] decides whether some document yields a non-empty
    relation — graph reachability. *)
val satisfiable : t -> bool

(** [some_witness e] is a (document, tuple) pair in the spanner's
    graph, if the spanner is satisfiable. *)
val some_witness : t -> (string * Span_tuple.t) option

(** [contains a b] decides ⟦b⟧(D) ⊆ ⟦a⟧(D) for all D (the Containment
    problem, PSpace-complete for regular spanners, §2.4) by subset
    simulation over canonical extended words. *)
val contains : t -> t -> bool

(** [equal_spanner a b] decides spanner equality (the Equivalence
    problem, §2.4). *)
val equal_spanner : t -> t -> bool

(** [hierarchical e] decides whether the spanner is hierarchical: no
    document admits a tuple with strictly overlapping spans (§2.2,
    §2.4).  Decided by reachability over (state, marker-status)
    configurations. *)
val hierarchical : t -> bool

(** [overlap_possible e x y] decides whether some accepted tuple gives
    [x] and [y] strictly overlapping spans — the primitive behind
    {!hierarchical} and behind the non-overlapping side condition of
    the core→refl translation (§3.2). *)
val overlap_possible : t -> Variable.t -> Variable.t -> bool

(** {1 Materialising evaluation} *)

(** [eval e doc] is the full span relation ⟦e⟧(doc), computed by a
    pruned depth-first search over the product of [e] and [doc] with
    duplicate elimination — the reference evaluator ("oracle") against
    which {!Compiled} is tested.  Worst-case exponential time in
    |doc| only through the output size; the search itself is pruned to
    useful product nodes. *)
val eval : t -> string -> Span_relation.t

(** {1 Visualisation} *)

(** [pp_dot ppf e] renders the automaton in Graphviz DOT: letter arcs
    solid (labelled with their character class), set arcs dashed
    (labelled with the marker set), accepting states doubly circled. *)
val pp_dot : Format.formatter -> t -> unit
