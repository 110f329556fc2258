(** Span tuples: (partial) assignments of spans to variables.

    An (X, D)-tuple is a function X → Spans(D) (§1).  Following the
    schemaless semantics of [27] discussed in §2.2, the representation
    is a *partial* map: [find t x = None] encodes t(x) = ⊥.  A tuple
    that is total on a variable set is called functional on it. *)

type t

(** [empty] assigns no variable. *)
val empty : t

(** [bind t x s] is [t] with [x ↦ s] (overriding any previous
    binding). *)
val bind : t -> Variable.t -> Span.t -> t

(** [of_list bindings] builds a tuple from a list of bindings. *)
val of_list : (Variable.t * Span.t) list -> t

(** [find t x] is the span of [x], if bound. *)
val find : t -> Variable.t -> Span.t option

(** [get t x] is the span of [x].
    @raise Not_found if unbound. *)
val get : t -> Variable.t -> Span.t

(** [domain t] is the set of bound variables. *)
val domain : t -> Variable.Set.t

(** [is_functional_on t vars] tests that every variable of [vars] is
    bound (total-function semantics of [9]). *)
val is_functional_on : t -> Variable.Set.t -> bool

(** [bindings t] lists the bindings in variable order. *)
val bindings : t -> (Variable.t * Span.t) list

(** [equal a b], [compare a b], [hash t] are structural. *)
val equal : t -> t -> bool

val compare : t -> t -> int
val hash : t -> int

(** {1 Algebraic operations on tuples} *)

(** [project vars t] restricts [t] to [vars]. *)
val project : Variable.Set.t -> t -> t

(** [compatible a b] tests that [a] and [b] agree on their common
    bound variables — the join condition of ⋈ (§1). *)
val compatible : t -> t -> bool

(** [merge a b] is the union of two {!compatible} tuples.
    @raise Invalid_argument if they are not compatible. *)
val merge : t -> t -> t

(** [fuse vars ~into t] is the column-fusion ⨄_{vars → into} of §3.2:
    the variables of [vars] are removed and [into] is bound to the span
    from the minimum left bound to the maximum right bound of their
    spans.  Unbound members of [vars] are ignored; if none is bound,
    [into] is left unbound. *)
val fuse : Variable.Set.t -> into:Variable.t -> t -> t

(** [satisfies_equality t doc vars] tests the string-equality
    selection ς=_{vars} on [t] over [doc]: all *bound* variables of
    [vars] address equal factors of [doc] (§1).  Vacuously true if
    fewer than two are bound. *)
val satisfies_equality : t -> string -> Variable.Set.t -> bool

(** [hierarchical t] tests that no two bound spans strictly overlap
    (§2.2). *)
val hierarchical : t -> bool

(** [add_to_buffer buf t] appends [t]'s rendering, [(x ↦ [1,3⟩, y ↦
    [3,5⟩)], its bindings in variable order.  The one tuple writer:
    {!pp} and serve's R-lines both use it. *)
val add_to_buffer : Buffer.t -> t -> unit

(** [pp ppf t] prints [t] as {!add_to_buffer} renders it. *)
val pp : Format.formatter -> t -> unit
