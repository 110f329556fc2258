(** Straight-line programs (§4): hash-consed DAGs of binary
    concatenation nodes over character leaves.

    An SLP lives inside a {!store} (an arena of nodes).  Every node
    represents the document 𝔇(node) obtained by recursively
    concatenating its children (Figure 1 of the paper).  Nodes are
    hash-consed: structurally equal nodes are shared, which is where
    the compression comes from — in the best case a node of derived
    length 2^k needs only k nodes (see {!Builder.power}).

    All operations that "modify" a document actually add nodes; a
    store is persistent in the functional sense even though the arena
    is a mutable buffer. *)

type store

type id = int

type node = Leaf of char | Pair of id * id

(** [create_store ()] is an empty arena. *)
val create_store : unit -> store

(** [leaf store c] is the (unique) leaf node for character [c]. *)
val leaf : store -> char -> id

(** [pair store l r] is the (hash-consed) node deriving 𝔇(l)·𝔇(r).
    @raise Spanner_util.Limits.Spanner_error [(Eval_failure _)] when
    |𝔇(l)| + |𝔇(r)| exceeds [max_int]; no node is created. *)
val pair : store -> id -> id -> id

(** [node store id] inspects a node. *)
val node : store -> id -> node

(** [len store id] is |𝔇(id)|, maintained per node (O(1)). *)
val len : store -> id -> int

(** [order store id] is the order of the node (§4.1): leaves have
    order 1; an inner node has order 1 + max of its children — i.e.
    1 + the longest path to a leaf. *)
val order : store -> id -> int

(** [balance store id] is bal(id) = order(left) − order(right) for an
    inner node (§4.1); 0 for a leaf. *)
val balance : store -> id -> int

(** [store_size store] is the total number of nodes in the arena. *)
val store_size : store -> int

(** [reachable_size store id] is |S| for the sub-SLP rooted at [id]:
    the number of distinct reachable nodes. *)
val reachable_size : store -> id -> int

(** [char_at store id i] is 𝔇(id) at 1-based position [i], in time
    O(order id).
    @raise Invalid_argument if out of range. *)
val char_at : store -> id -> int -> char

(** [to_string store id] decompresses the whole document — O(|𝔇(id)|)
    time and space; the operation every compressed-evaluation
    result of §4 is measured against. *)
val to_string : store -> id -> string

(** [extract_string store id i j] is the factor 𝔇(id)[i..j−1] (1-based,
    half-open like spans), without decompressing the rest. *)
val extract_string : store -> id -> int -> int -> string

(** [of_string store s] is a left-comb SLP for [s] with no sharing —
    the degenerate baseline; see {!Builder} for the real builders.
    @raise Invalid_argument on the empty string (SLPs derive non-empty
    documents). *)
val of_string : store -> string -> id

(** [iter_reachable store id f] applies [f] to every reachable node id,
    children before parents (a topological order). *)
val iter_reachable : store -> id -> (id -> unit) -> unit

(** {1 Frozen snapshots}

    A store is a mutable arena, so concurrent readers race against
    writers (and against the cell buffer's reallocation).  A {!frozen}
    view is an immutable snapshot of every node present at {!freeze}
    time: safe to share across OCaml 5 [Domain]s by construction.
    Node ids are stable — an id valid in the store is valid in every
    later snapshot — and ascending id order is a valid topological
    order (children are always interned before parents).

    A frozen view has two interchangeable representations behind the
    same accessors: the heap-array snapshot {!freeze} builds, and a
    {e flat} view over [Bigarray] int columns ({!frozen_of_columns})
    that the arena store ([Spanner_store.Arena], format [SLPAR1]) lays
    directly over an mmapped file — zero deserialization, shared
    read-only across domains {e and} processes.  Flat columns may come
    from an untrusted file, so flat accessors validate what they touch
    (O(1) per access) and raise a typed
    [Spanner_util.Limits.Spanner_error] ([Corrupt_input]) instead of
    ever reading out of bounds. *)

type frozen

(** Bigarray int columns backing a flat frozen view. *)
type int_array = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [freeze store] snapshots all [store_size store] nodes.  O(store
    size); nodes created later are not visible in the snapshot. *)
val freeze : store -> frozen

(** [frozen_of_columns ~count ~left ~right ~lens] is a flat frozen
    view over struct-of-arrays columns, typically slices of one
    mmapped arena.  Node [id < count] is a leaf for byte [b] when
    [left.{id} = -(1 + b)], else the pair [(left.{id}, right.{id})];
    [lens.{id}] is its derived length.  The columns are {e not}
    copied or validated here — construction is O(1); accessors
    validate per node.
    @raise Invalid_argument when a column is shorter than [count]. *)
val frozen_of_columns :
  count:int -> left:int_array -> right:int_array -> lens:int_array -> frozen

(** [frozen_bytes fz] estimates the memory behind the view: mapped
    column bytes for a flat view, heap words for an array snapshot. *)
val frozen_bytes : frozen -> int

(** [frozen_size fz] is the number of nodes in the snapshot. *)
val frozen_size : frozen -> int

(** [frozen_node fz id] inspects a node of the snapshot (O(1), no
    lock).
    @raise Invalid_argument if [id] is outside the snapshot.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) when a
    flat view's columns are malformed at [id] (leaf byte out of range,
    child not preceding its parent). *)
val frozen_node : frozen -> id -> node

(** [frozen_len fz id] is |𝔇(id)| per the snapshot.
    @raise Spanner_util.Limits.Spanner_error ([Corrupt_input]) on a
    flat view holding a non-positive length. *)
val frozen_len : frozen -> id -> int

(** [frozen_to_string ?gauge fz id] decompresses from the snapshot,
    charging one step of [gauge] per emitted byte — the decompression
    itself is metered, so an over-budget document fails before the
    bytes pile up.  Iterative: survives SLPs of any depth.
    @raise Spanner_util.Limits.Spanner_error when the gauge trips. *)
val frozen_to_string : ?gauge:Spanner_util.Limits.gauge -> frozen -> id -> string

(** [on_new_node store f] registers [f] to be called with the id of
    every node subsequently created in [store] (hash-consing hits do
    not create nodes and do not fire).  Used by per-node caches
    ({!Spanner_incr.Incr}) to track which nodes an edit created and to
    drop any stale entry under a fresh id. *)
val on_new_node : store -> (id -> unit) -> unit

(** [is_c_shallow store ~c id] tests order(A) ≤ c·log₂|𝔇(A)| for the
    root and every reachable inner node of derived length ≥ 2
    (§4.1). *)
val is_c_shallow : store -> c:float -> id -> bool

(** [is_strongly_balanced store id] tests bal ∈ {−1, 0, 1} for [id]
    and all descendants (§4.1). *)
val is_strongly_balanced : store -> id -> bool
