(** Flat boolean relations over automaton states, in machine words: the
    composition kernel of the SLP engines (§4.2).

    A {e slab} holds any number of {e blocks}, one per slot.  A block is
    the behaviour of an automaton with states [0..n-1] over one document
    factor: its {e pure} relation (runs that read letters only), its
    {e mixed} relation (runs that also take set arcs), and the
    transposes of both, side by side in flat words; a row is [⌈n/63⌉]
    words at a fixed stride, bit [j mod 63] of word [j / 63] standing
    for state [j].  Blocks are stored in chunks, [Bytes] buffers that
    the major GC never scans and that are never reallocated: a filled
    block never moves, so once its slot has been handed to another
    domain through a synchronising structure, that domain may read it
    while this one allocates and fills other blocks.

    A slab is {e functional} when its automaton is deterministic: the
    letters-only relation is then a partial function, so pure is stored
    as a state map (one word per state, [-1] for no target) and its
    transpose as one preimage row per state.  Composition
    ({!compose}) then does one general product, Mixed_A·Mixed_B; the
    other parts are an O(n) map composition (Pure_A·Pure_B), a row
    gather (Pure_A·Mixed_B) and a per-row remap (Mixed_A·Pure_B).  A
    non-functional slab composes with general products throughout. *)

type t

(** [create ~states ~functional k] is an empty slab for an automaton
    with [states] states.  Its first chunk holds [k] blocks, and each
    later one twice as many as the one before. *)
val create : states:int -> functional:bool -> int -> t

(** [alloc t] is the slot of a fresh, empty block (no pure or mixed
    pair; on a functional slab every state maps to [-1]); the first
    block of a slab is slot [0].  Its transposes are undefined until
    {!seal} or {!compose} fills them. *)
val alloc : t -> int

(** {1 Building a block by entries} *)

(** [set_pure t s p q] adds [(p, q)] to block [s]'s pure relation.
    @raise Invalid_argument on a functional slab if [p] already maps to
    another state. *)
val set_pure : t -> int -> int -> int -> unit

(** [set_mixed t s p q] adds [(p, q)] to block [s]'s mixed relation. *)
val set_mixed : t -> int -> int -> int -> unit

(** [seal t s] computes block [s]'s transposes from its pure and mixed
    relations; call it once the block's entries are set. *)
val seal : t -> int -> unit

(** {1 Composition} *)

(** [compose l a r b d c] writes into block [c] of [d] the composition of
    block [a] of [l] (factor X) with block [b] of [r] (factor Y), the
    summary of X·Y: [Pure = Pure_X·Pure_Y] and [Mixed = Mixed_X·(Pure_Y ∪
    Mixed_Y) ∪ Pure_X·Mixed_Y], then both transposes.  The three slabs
    may be one and the same; they must agree on states and
    functionality.  Allocates nothing. *)
val compose : t -> int -> t -> int -> t -> int -> unit

(** {1 Reading a block} *)

(** [pure_mem t s p q] tells whether block [s]'s pure relation holds
    [(p, q)]. *)
val pure_mem : t -> int -> int -> int -> bool

(** [mixed_mem t s p q] tells whether block [s]'s mixed relation holds
    [(p, q)]. *)
val mixed_mem : t -> int -> int -> int -> bool

(** [first_split l a p r b q from] is the least state [mid >= from]
    through which the factor of block [a] of [l] (left) and the factor
    of block [b] of [r] (right) split some marker-placing run from [p]
    to [q]: mixed left and pure right, pure left and mixed right, or
    mixed on both sides — [Mixed_L(p,mid) ∧ (Pure_R ∨ Mixed_R)(mid,q)
    ∨ Pure_L(p,mid) ∧ Mixed_R(mid,q)] — or [-1] if there is none.  One
    pass over row [p] of the left block and the transposed rows [q] of
    the right block, a word at a time. *)
val first_split : t -> int -> int -> t -> int -> int -> int -> int

(** A set of states in the slab's row layout. *)
type row

(** [row ~states mem] is the set of [q < states] with [mem q]. *)
val row : states:int -> (int -> bool) -> row

(** [first_in_row t s p row from] is the least [q >= from] in [row]
    that block [s] relates to [p], purely or mixed, or [-1]. *)
val first_in_row : t -> int -> int -> row -> int -> int
