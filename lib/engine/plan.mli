(** Representation-aware query planning: one front door for every
    evaluation engine.

    The library grew four ways to answer the same question — the
    dense-table document pass ({!Spanner_core.Compiled}), the
    compressed-domain matrix sweep ({!Spanner_slp.Slp_spanner}), the
    decompress-then-evaluate baseline, and the summary-cached
    incremental engine ({!Spanner_incr.Incr}) — and until now every
    caller hand-picked one.  A plan binds a compiled spanner to an
    input {e shape} (plain string, SLP node, frozen document batch,
    live CDE session), chooses the engine from what the shape exposes
    (document vs compressed size, cache state) and keeps the rationale
    printable, so [spanner-cli explain] can show {e why} — the same
    facts the choice was made from.

    Execution goes through {!Cursor}: {!cursor} streams one document's
    results, {!cursors} gives per-document streams of a batch, and
    {!relations} is the materialising fold (parallel across a
    {!Spanner_util.Pool} for batch shapes).  Every batch evaluation in
    the library and the CLI goes through {!cursors} or {!relations}. *)

open Spanner_core
module Slp := Spanner_slp.Slp
module Doc_db := Spanner_slp.Doc_db
module Corpus := Spanner_store.Corpus
module Incr := Spanner_incr.Incr

(** What the query runs over.  Batch shapes ([Docs], [Db], [Packed])
    evaluate many documents under one plan; the others stream a single
    result. *)
type input =
  | Doc of string  (** one plain (uncompressed) document *)
  | Docs of (string * string) array  (** plain documents, [(name, contents)] *)
  | Slp_node of Slp.store * Slp.id  (** one SLP-compressed document *)
  | Db of Doc_db.t  (** a shared-store document database *)
  | Packed of Corpus.t
      (** a mapped arena corpus: the sweep runs straight over the
          frozen columns, one engine per shard, shard-parallel *)
  | Session of Incr.session * string
      (** a live CDE session and a designated document name, resolved
          at cursor-creation time (edits may re-designate it) *)

type choice = [ `Compiled | `Compressed | `Decompress | `Incr ]

type t

(** [make ?force ct input] plans the evaluation of [ct] over [input].
    Plain documents take the compiled per-document pass; compressed
    inputs compare compressed against decompressed size — a matrix
    sweep is linear in SLP {e nodes}, so it wins exactly when the
    document is actually compressible (ratio ≥ 2), otherwise the
    decompress-then-evaluate baseline is cheaper; a session always
    evaluates incrementally from its summary cache.  [force] overrides
    the choice (the CLI's explicit [--engine] flag), recorded in the
    rationale.  Only what the choice needs is computed here (bytes and
    nodes of the compressed shapes); on a [Session] input [make] is
    O(1) and resolves nothing.
    @raise Invalid_argument when [force] does not fit the shape
    (e.g. [`Incr] without a session). *)
val make : ?force:choice -> Compiled.t -> input -> t

(** [sweep_threshold] is the compression ratio (decompressed bytes per
    SLP node) from which the matrix sweep beats decompress-then-scan:
    {!make} picks [`Compressed] at or above it, and the server's
    native-path gate ({!Spanner_serve.Registry}) walks at most
    bytes / [sweep_threshold] nodes before falling back. *)
val sweep_threshold : float

val choice : t -> choice
val input : t -> input

(** [rationale p] is the planner's evidence: labelled facts (input
    shape, sizes, compression ratio, automaton dimensions, cache
    state) followed by a one-line justification.  The facts are
    computed on demand, on every call: the sizes the choice was made
    from are the ones {!make} captured, and everything else is read
    now — a [Session] plan resolves its document and walks it for
    [nodes] here, against the session's current state. *)
val rationale : t -> (string * string) list * string

(** [pp ppf p] prints the plan — choice, facts, justification — in the
    stable format [spanner-cli explain] locks in its cram test.  Like
    {!rationale}, it computes the facts on demand. *)
val pp : Format.formatter -> t -> unit

(** {1 Execution} *)

(** [cursor ?limits p] streams the results of a single-document plan
    ([Doc], [Slp_node], [Session]).  Preprocessing (document pass,
    matrix sweep, summary filling) happens here, under the same gauge
    that meters the stream — one budget spans both phases.
    @raise Invalid_argument on batch shapes (use {!cursors}). *)
val cursor : ?limits:Spanner_util.Limits.t -> t -> Cursor.t

(** [cursors ?limits p] prepares every document of a batch plan on the
    caller's domain and returns per-document streams in input order,
    each metered by its own gauge.  Work the batch shares runs first,
    under one gauge per unit of sharing: a [Db]'s sweep over the shared
    store, and one sweep per shard of a [Packed] corpus.  A document
    whose preparation trips, or whose shared sweep tripped, degrades to
    its [Error] slot (enumeration-stage errors surface from the
    cursor's pulls instead).  Single-document plans return one slot. *)
val cursors :
  ?limits:Spanner_util.Limits.t -> t -> (string * (Cursor.t, exn) result) array

(** [relations ?jobs ?limits p] materialises every document of the
    plan: the preparation of {!cursors}, then
    {!Cursor.to_relation}, with per-document work fanned out across
    [jobs] domains ({!Spanner_util.Pool.map_result}).  A [Packed]
    corpus under [`Compressed] runs in two waves: its per-shard sweeps first,
    across [jobs] domains, then per-document enumeration over the
    shared engines.  A failed sweep poisons the documents it covers
    (the whole [Db], or one shard); any other failure poisons one
    document.  A single-document plan runs on the caller's domain. *)
val relations :
  ?jobs:int ->
  ?limits:Spanner_util.Limits.t ->
  t ->
  (string * (Span_relation.t, exn) result) array
