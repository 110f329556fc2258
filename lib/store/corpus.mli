(** A sharded packed corpus: one or more {!Arena}s behind a single
    document namespace.

    {!pack} splits a document database round-robin into N arena files
    plus an {!Manifest}; {!open_path} sniffs a path (arena magic vs
    manifest magic) and maps whatever it finds.  Document names must
    be unique {e across} shards — overlapping shard manifests are
    rejected with a typed [Corrupt_input] — so a document resolves to
    exactly one (shard, root) pair and shard-level work (the
    per-shard sweep of [Plan]'s batch path, per-shard partial
    failure) routes by that pair. *)

module Slp := Spanner_slp.Slp
module Doc_db := Spanner_slp.Doc_db

type t

(** {1 Packing} *)

(** [pack db ~shards path] packs [db] into [shards] arena files.
    With one shard, [path] is the arena itself; with N > 1, documents
    are assigned round-robin (document [i] to shard [i mod N], so
    every shard carries a similar share), shard [i] is written next
    to the manifest as [path ^ ".i.slpar"], and [path] is the
    manifest.  Returns the written file paths, manifest last.
    Shards with no documents are still written (empty arenas).
    @raise Invalid_argument when [shards < 1]. *)
val pack : Doc_db.t -> shards:int -> string -> string list

(** {1 Opening} *)

(** [open_path path] maps the corpus at [path] — a single [SLPAR1]
    arena or an [SLPMF1] manifest whose shard paths resolve relative
    to the manifest's directory.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) on bad
    magic, a hostile arena/manifest, or document names overlapping
    between shards. *)
val open_path : string -> t

(** [of_arenas arenas] assembles an already-opened shard list.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) on
    overlapping document names. *)
val of_arenas : Arena.t array -> t

(** {1 Access} *)

val shards : t -> Arena.t array

val shard_count : t -> int

(** [docs t] is every document as [(name, shard, root)], shards in
    manifest order, documents in file order within a shard. *)
val docs : t -> (string * int * Slp.id) array

(** [find t name] is the owning shard and root of a document. *)
val find : t -> string -> (int * Slp.id) option

val doc_count : t -> int

(** [node_count t] sums nodes over shards (shared structure between
    shards is counted per shard — shards are self-contained). *)
val node_count : t -> int

(** [total_len t] sums document lengths over shards.
    @raise Spanner_util.Limits.Spanner_error [(Eval_failure _)] when
    the sum passes [max_int]. *)
val total_len : t -> int

val mapped_bytes : t -> int

val resident_bytes : t -> int
