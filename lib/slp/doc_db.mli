(** Document databases (§4): a set of designated nodes of a shared SLP,
    each representing one stored document (Figure 1).

    The database owns the store; all documents share its nodes, so a
    factor occurring in several documents is represented once. *)

type t

(** [create ()] is an empty database with a fresh store. *)
val create : unit -> t

(** [store db] is the underlying node store. *)
val store : t -> Slp.store

(** [add db name id] designates [id] as document [name] (replacing any
    previous designation of [name]). *)
val add : t -> string -> Slp.id -> unit

(** [add_string db name s] compresses [s] (LZ78 + strong balancing)
    and adds it. *)
val add_string : t -> string -> string -> Slp.id

(** [find db name] is the node of document [name].
    @raise Not_found if absent. *)
val find : t -> string -> Slp.id

(** [find_opt db name] is the optional variant. *)
val find_opt : t -> string -> Slp.id option

(** [names db] is the document names in insertion order. *)
val names : t -> string list

(** [total_len db] is Σ |D_i| — the uncompressed size.
    @raise Spanner_util.Limits.Spanner_error [(Eval_failure _)] when
    the sum passes [max_int]. *)
val total_len : t -> int

(** [compressed_size db] is the number of distinct nodes reachable
    from any designated document — the |S| of the shared SLP. *)
val compressed_size : t -> int

(** [freeze db] is an immutable snapshot of the shared store
    ({!Slp.freeze}): safe for concurrent reads across domains. *)
val freeze : t -> Slp.frozen
