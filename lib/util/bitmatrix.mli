(** Square boolean matrices.

    The SLP algorithms of Section 4.2 of the paper reduce NFA acceptance
    over a compressed string to boolean matrix products computed
    bottom-up along the SLP DAG: for a node [A = BC],
    [M_A = M_B * M_C].  Rows are {!Bitset}s so a product row is a
    word-parallel union of rows. *)

type t

(** [create n] is the [n×n] all-zero matrix. *)
val create : int -> t

(** [identity n] is the [n×n] identity matrix. *)
val identity : int -> t

(** [dim m] is the dimension [n]. *)
val dim : t -> int

(** [get m i j] is entry [(i, j)]. *)
val get : t -> int -> int -> bool

(** [set m i j] sets entry [(i, j)] to [true]. *)
val set : t -> int -> int -> unit

(** [row m i] is the [i]-th row (shared, do not mutate). *)
val row : t -> int -> Bitset.t

(** [mul a b] is the boolean matrix product [a * b]:
    entry [(i,j)] is true iff some [k] has [a(i,k) && b(k,j)]. *)
val mul : t -> t -> t

(** [union a b] is the entrywise disjunction. *)
val union : t -> t -> t

(** [transitive_closure m] is the reflexive-transitive closure
    [I ∪ m ∪ m² ∪ …]. *)
val transitive_closure : t -> t

(** [apply_row m s] is the set [{ j | ∃ i ∈ s, m(i,j) }]:
    the image of the state set [s] under one matrix step. *)
val apply_row : t -> Bitset.t -> Bitset.t

(** [equal a b] is entrywise equality. *)
val equal : t -> t -> bool

(** [copy m] is an independent copy. *)
val copy : t -> t
