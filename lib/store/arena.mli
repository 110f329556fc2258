(** SLPAR1: frozen SLP stores as flat, mmap-friendly arenas.

    An arena lays a frozen document store out as structs-of-int-arrays
    in one contiguous buffer — node left/right/len columns (the leaf
    tag folded into the sign of the left column), a 256-entry
    byte→leaf table, document root/name tables — using {e offsets
    instead of pointers}, so the bytes on disk are already the
    in-memory representation.  {!openfile} mmaps the file and verifies
    a checksummed fixed-size header; no node is parsed, copied, or
    even touched, so load cost is O(header + document table),
    independent of corpus bytes and SLP size, and N processes mapping
    the same arena share one physical copy through the page cache.

    {!frozen_view} is the arena's {!Spanner_slp.Slp.frozen} — a flat
    view ({!Spanner_slp.Slp.frozen_of_columns}) satisfying the whole
    frozen-store access surface ([frozen_node]/[frozen_len]/the
    [Slp_spanner] sweep) directly over the mapping, zero
    deserialization.

    Layout (all integers host little-endian 64-bit words holding
    OCaml [int] values; every section 8-byte aligned):

    {v
      word 0       magic "SLPAR1\n\x00"
      word 1       version (1)
      word 2       node count n
      word 3       document count d
      word 4       name-blob bytes b
      word 5       body checksum  (FNV-1a folded to 62 bits, bytes 64..)
      word 6       total file bytes
      word 7       header checksum (bytes 0..55)
      words 8..    left column   (n words; leaf byte c as -(1+c))
                   right column  (n words)
                   len column    (n words)
                   byte→leaf     (256 words; leaf id or -1)
                   doc roots     (d words)
                   doc name offsets, doc name lengths (d words each)
                   name blob     (b bytes, zero-padded to 8)
    v}

    Trust model: the header checksum and section geometry are verified
    at open (O(1)); the body checksum is written by {!pack_bytes} but
    only verified by an explicit {!validate} (keeping open O(1)).
    Until then the columns are untrusted — the flat frozen view
    validates each node it touches in O(1) and raises a typed
    [Corrupt_input], so a hostile arena degrades to an error, never a
    crash (fuzz target ["arena"]). *)

module Slp := Spanner_slp.Slp

type t

(** {1 Writing} *)

(** [pack_bytes store docs] serialises the nodes reachable from the
    designated roots — renumbered topologically, children first — into
    arena bytes, with both checksums filled in.
    @raise Invalid_argument on duplicate document names. *)
val pack_bytes : Slp.store -> (string * Slp.id) list -> string

(** [write_file store docs path] is {!pack_bytes} written to [path]. *)
val write_file : Slp.store -> (string * Slp.id) list -> string -> unit

(** {1 Opening} *)

(** [openfile path] maps the arena at [path] read-only and verifies
    magic, geometry and header checksum — O(1) in the number of
    nodes; the document table (O(d)) is the only part read eagerly.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) on a
    truncated, misaligned, or checksum-failing header, or a malformed
    document table. *)
val openfile : string -> t

(** [of_string s] opens arena bytes held in memory (tests, fuzzing):
    same validation as {!openfile}, no file backing. *)
val of_string : string -> t

(** [validate t] verifies everything {!openfile} deferred: the body
    checksum and the full structural invariants (leaf bytes, child
    ordering, exact derived lengths, byte-table consistency).  O(file
    size).  {!pack_bytes} output always validates.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]). *)
val validate : t -> unit

(** {1 Access} *)

(** [frozen_view t] is the zero-copy frozen store over the mapping. *)
val frozen_view : t -> Slp.frozen

val node_count : t -> int

(** [docs t] is the document table in file order. *)
val docs : t -> (string * Slp.id) array

val find : t -> string -> Slp.id option

(** [leaf t c] is the leaf node for byte [c], from the byte→leaf
    table, if the arena contains one. *)
val leaf : t -> char -> Slp.id option

(** [total_len t] is the summed derived length of all documents.
    @raise Spanner_util.Limits.Spanner_error [(Eval_failure _)] when
    the sum passes [max_int]. *)
val total_len : t -> int

(** [path t] is the backing file, if any. *)
val path : t -> string option

(** [mapped_bytes t] is the size of the mapping (the file size). *)
val mapped_bytes : t -> int

(** [resident_bytes t] estimates how much of the mapping is physically
    resident, from [/proc/self/smaps] (Linux; 0 where unavailable).
    In-memory arenas report {!mapped_bytes}. *)
val resident_bytes : t -> int
