(** Core spanners and the core-simplification lemma (§2.3).

    The core spanners are [RGX]^{∪,⋈,π,ς=} — the closure of the
    primitive regex-formula spanners under the full algebra.  The
    core-simplification lemma states that every core spanner can be
    written as

    {v  π_Y ( ς=_{Z1} … ς=_{Zk} ( ⟦M⟧ ) )  v}

    for a single regular spanner M: in terms of expressive power, the
    string-equality selection is the *only* non-regular feature.
    {!simplify} implements the lemma constructively under the
    schemaless semantics, for which it holds verbatim ([38] + [27], as
    discussed in §2.3).

    Evaluation of the simplified form makes the complexity difference
    of §2.4 concrete: the automaton part is evaluated by the efficient
    machinery of {!Compiled}, and the selections are then a filter —
    whose satisfying assignment may require exploring exponentially
    many automaton tuples, exactly the NP-hardness mechanism of the
    pattern-matching-with-variables encoding shown in §2.4. *)

type t = {
  automaton : Evset.t;  (** the regular spanner M *)
  selections : Variable.Set.t list;  (** Z₁ … Z_k *)
  projection : Variable.Set.t;  (** Y *)
}

(** [simplify e] is the core-simplification of an algebra expression.
    The result's visible schema equals [Algebra.schema e]; auxiliary
    variables introduced by the construction are hidden behind the
    projection. *)
val simplify : Algebra.t -> t

(** [of_regular e] wraps a plain regular spanner (no selections). *)
val of_regular : Evset.t -> t

(** [schema s] is the visible schema Y. *)
val schema : t -> Variable.Set.t

(** [select vars s] appends a string-equality selection on visible
    variables.
    @raise Invalid_argument if [vars ⊄ schema s]. *)
val select : Variable.Set.t -> t -> t

(** [project vars s] restricts the visible schema. *)
val project : Variable.Set.t -> t -> t

(** {1 Evaluation (§2.4 complexities)} *)

(** [eval s doc] materialises the result relation: enumerate the
    automaton's tuples, filter by the selections (O(1) factor
    comparisons via rolling hashes), project, deduplicate. *)
val eval : t -> string -> Span_relation.t

(** [selections_hold ~equal zs tuple] is the string-equality filter
    ς=_{Z₁} … ς=_{Z_k}: for each [z] in [zs], the spans that [tuple]
    binds to variables of [z] all have [equal] contents (unbound
    variables are ignored).  [equal] compares the factors under two
    spans of one document; each engine passes its own factor
    comparison (rolling hashes over the text, or SLP factor hashes). *)
val selections_hold :
  equal:(Span.t -> Span.t -> bool) -> Variable.Set.t list -> Span_tuple.t -> bool

(** [content_equal h a b] compares the factors under spans [a] and [b]
    of the document [h] was made from, in O(1)
    ({!Spanner_util.Strhash.equal_span}). *)
val content_equal : Spanner_util.Strhash.t -> Span.t -> Span.t -> bool

(** [eval_algebra e doc] is [eval (simplify e) doc]. *)
val eval_algebra : Algebra.t -> string -> Span_relation.t

(** [nonempty_on s doc] decides ⟦s⟧(doc) ≠ ∅ lazily (first satisfying
    automaton tuple wins).  NP-hard in general (§2.4): worst case
    explores every automaton tuple. *)
val nonempty_on : t -> string -> bool

(** [model_check s doc t] decides t ∈ ⟦s⟧(doc) (ModelChecking, NP-hard
    for core spanners, §2.4). *)
val model_check : t -> string -> Span_tuple.t -> bool

(** {1 Bounded static analysis}

    Satisfiability is PSpace-complete and Containment/Equivalence are
    undecidable for core spanners (§2.4); these bounded procedures
    search documents over the automaton's alphabet up to a length
    bound and answer [`Unknown`] beyond it. *)

type bounded = [ `Yes | `No | `Unknown ]

(** [satisfiable ~max_len s] searches for a document of length
    ≤ [max_len] with non-empty result.  Returns [`Yes] on a witness;
    [`No] only when the underlying automaton is unsatisfiable (a sound
    certificate); [`Unknown] otherwise. *)
val satisfiable : max_len:int -> t -> bounded

(** [contained_in ~max_len a b] tests ⟦a⟧(D) ⊆ ⟦b⟧(D) for all D up to
    the bound; [`No] is certified by a witness document. *)
val contained_in : max_len:int -> t -> t -> bounded

(** [equivalent ~max_len a b] is two-sided {!contained_in}. *)
val equivalent : max_len:int -> t -> t -> bounded
