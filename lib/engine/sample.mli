(** Bounded-prefix cardinality sampling: cheap per-spanner estimates
    for cost-based planning.

    Evaluating an operand exactly to learn its cardinality would cost
    as much as the query itself, so the {!Optimizer} prices operands on
    a {e bounded prefix} of the document instead: one
    {!Spanner_core.Compiled.prepare} pass over the first
    {!default_bytes} bytes is O(prefix), and its O(1)
    {!Spanner_core.Compiled.cardinal} / {!Spanner_core.Compiled.stats}
    counters give a tuple count and DAG size that order join operands
    well in practice (matches on a prefix are representative for the
    homogeneous documents the benchmarks use; a skewed tail can fool
    the estimate, which only ever costs plan quality, never
    correctness). *)

open Spanner_core

(** Default prefix bound, in bytes. *)
val default_bytes : int

type estimate = {
  sample_bytes : int;  (** bytes actually sampled (≤ the document) *)
  doc_bytes : int;  (** full document length *)
  tuples : int;  (** result tuples on the sampled prefix, [max_int] past it *)
  nodes : int;  (** useful product-DAG nodes on the prefix *)
}

(** [prefix ?bytes doc] is the first [bytes] (default
    {!default_bytes}) bytes of [doc], or all of it if shorter. *)
val prefix : ?bytes:int -> string -> string

(** [estimate ?limits ?bytes ct doc] prepares [ct] on
    [prefix ?bytes doc] and reads the counters. *)
val estimate : ?limits:Spanner_util.Limits.t -> ?bytes:int -> Compiled.t -> string -> estimate

(** [projected e] linearly extrapolates the sampled tuple count to the
    full document length — a coarse total-cardinality guess for
    display; operand {e ordering} uses the raw sampled counts. *)
val projected : estimate -> float
