(** Dense, fixed-capacity bitsets.

    Used for NFA state sets during subset construction and simulation,
    and as the rows of {!Bitmatrix}. *)

type t

(** [create n] is an empty bitset with capacity for elements [0..n-1]. *)
val create : int -> t

(** [capacity s] is the number of addressable elements. *)
val capacity : t -> int

(** [copy s] is an independent copy. *)
val copy : t -> t

(** [add s i] sets bit [i]. *)
val add : t -> int -> unit

(** [remove s i] clears bit [i]. *)
val remove : t -> int -> unit

(** [mem s i] tests bit [i]. *)
val mem : t -> int -> bool

(** [is_empty s] tests whether no bit is set. *)
val is_empty : t -> bool

(** [cardinal s] is the number of set bits. *)
val cardinal : t -> int

(** [equal a b] tests equality of contents (capacities must match). *)
val equal : t -> t -> bool

(** [subset a b] tests whether every bit of [a] is set in [b]. *)
val subset : t -> t -> bool

(** [union_into ~into src] sets [into := into ∪ src]; returns [true]
    if [into] changed. *)
val union_into : into:t -> t -> bool

(** [inter a b] is a fresh intersection. *)
val inter : t -> t -> t

(** [iter f s] applies [f] to every set bit index, ascending. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over the set bit indices, ascending. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] is the list of set bit indices, ascending. *)
val elements : t -> int list

(** [of_list n xs] is the bitset of capacity [n] holding [xs]. *)
val of_list : int -> int list -> t

(** [choose s] is the smallest set bit, or [None] if empty. *)
val choose : t -> int option

(** [first_from s i] is the smallest set bit [>= i], or [-1] if none.
    Byte-parallel: zero bytes are skipped eight candidates at a time,
    so scanning a sparse row costs O(capacity/8) rather than
    O(capacity) membership probes. *)
val first_from : t -> int -> int

(** [first_common_from a b i] is the smallest [j >= i] set in both [a]
    and [b], or [-1] — [first_from (inter a b) i] without building the
    intersection.  The candidate-skipping step of the native SLP
    enumerator ({!Spanner_slp.Slp_spanner}): one call finds the next
    viable split state of a grammar node. *)
val first_common_from : t -> t -> int -> int

(** [first_split_from a b c d i] is the smallest [j >= i] set in
    [(a ∧ c) ∨ (a ∧ d) ∨ (b ∧ d)], or [-1] — the split-candidate scan
    of matrix enumeration, fused so each scanned window is read once
    instead of six times across three {!first_common_from} passes.
    @raise Invalid_argument on a capacity mismatch. *)
val first_split_from : t -> t -> t -> t -> int -> int

(** {2 Raw byte access}

    Byte [k] holds bits [8k .. 8k+7], low bit first ([byte_length]
    bytes total).  For byte-parallel algorithms that outgrow the
    element-wise API (e.g. {!Bitmatrix.transpose}'s 8×8 block
    transpose); not intended for general use. *)

val byte_length : t -> int
val get_byte : t -> int -> int

(** [set_byte s k b] overwrites byte [k] with [b] (bits [8k..8k+7]).
    The caller must keep bits at or above [capacity s] clear. *)
val set_byte : t -> int -> int -> unit

(** [clear s] unsets every bit. *)
val clear : t -> unit

(** [hash s] is a content hash, compatible with {!equal}. *)
val hash : t -> int

(** Hashtables keyed by content: the subset tables of determinization
    (which the per-document product pass shares) and of the on-the-fly
    containment checks.  A key must not be
    mutated while it is in a table. *)
module Tbl : Hashtbl.S with type key = t

(** [seen_pair tbl ~capacity i s] tells whether the pair [(i, s)] was
    seen before, and records it: [tbl] maps each subset [s] to the set
    (of capacity [capacity]) of the [i] paired with it.  The visited
    set of a product of a state with a subset. *)
val seen_pair : t Tbl.t -> capacity:int -> int -> t -> bool

(** [compare a b] is a total order compatible with {!equal}. *)
val compare : t -> t -> int

(** {2 Reachability}

    Graphs over the states [0..n-1] of an automaton, given as successor
    functions: [succ q visit] calls [visit] on each successor of [q]. *)

(** [close s succ] adds to [s], in place, every state reachable from a
    member of [s] along [succ], and returns [s]. *)
val close : t -> (int -> (int -> unit) -> unit) -> t

(** [reverse n succ] is the predecessor function of [succ] over the
    states [0..n-1], so [close finals (reverse n succ)] is the set of
    states from which [finals] is reachable. *)
val reverse : int -> (int -> (int -> unit) -> unit) -> int -> (int -> unit) -> unit
