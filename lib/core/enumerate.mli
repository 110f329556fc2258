(** Two-phase enumeration of regular-spanner results (§2.5).

    Given a regular spanner (an extended vset-automaton) and a
    document, {!prepare} runs a preprocessing phase that is linear in
    the document length (data complexity): it determinises the
    automaton's extended form *on the document* — the product of
    document positions and automaton state-sets — trims it to useful
    nodes, and compresses markerless chains with jump pointers.  The
    resulting structure supports duplicate-free enumeration of all
    result tuples with delay independent of the document length
    (O(k) node hops per tuple, k = number of variables), in the spirit
    of Florenzano et al. [10] as discussed in §2.5.

    Every maximal path of the trimmed product DAG is an accepting run
    of the deterministic extended automaton and corresponds to exactly
    one result tuple, so the depth-first traversal needs no duplicate
    elimination; the enumeration stack keeps only nodes with unexplored
    branches, so the walk from one result to the next never retraces
    exhausted regions.

    Since the introduction of the compiled engine, this module is a
    thin wrapper over {!Compiled}: each call compiles the spanner into
    dense transition tables and runs the array-indexed document pass.
    Callers that evaluate one spanner over many documents should use
    {!Compiled} directly to pay the (spanner-only) compilation once. *)

type prepared = Compiled.prepared

(** [prepare ?limits e doc] runs the preprocessing phase.  O(|doc|)
    for a fixed spanner.  [limits] meters compilation and the document
    pass ({!Compiled.prepare}). *)
val prepare : ?limits:Spanner_util.Limits.t -> Evset.t -> string -> prepared

(** [iter p f] calls [f] exactly once per result tuple. *)
val iter : prepared -> (Span_tuple.t -> unit) -> unit

(** [to_seq p] enumerates the tuples on demand. *)
val to_seq : prepared -> Span_tuple.t Seq.t

(** [cardinal p] is the number of result tuples, O(1) after
    preparation (path counts are accumulated during the trim pass). *)
val cardinal : prepared -> int

(** [to_relation ?limits e doc] materialises ⟦e⟧(doc) through the
    enumeration pipeline (used by tests to cross-check against
    {!Evset.eval}). *)
val to_relation : ?limits:Spanner_util.Limits.t -> Evset.t -> string -> Span_relation.t

(** [first p] is the first tuple, if any, without full enumeration. *)
val first : prepared -> Span_tuple.t option

(** Preprocessing statistics, for the benchmark harness; O(1) —
    counts are recorded at {!prepare} time. *)
type stats = {
  nodes : int;  (** useful product nodes *)
  edges : int;  (** useful product edges *)
  boundaries : int;  (** |doc| + 1 *)
}

val stats : prepared -> stats
