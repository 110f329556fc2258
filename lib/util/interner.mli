(** String interning: a bijection between names and small integer ids.

    Spanner variables and alphabet symbols are interned so the hot
    automata code manipulates integers, while all user-facing output
    keeps the original names.

    Safe across domains: {!intern} and {!find} take a lock; {!name},
    {!count} and {!names} read without one. *)

type t

(** [create ()] is an empty interner. *)
val create : unit -> t

(** [intern t name] is the id of [name], allocating a fresh one on
    first sight.  Ids are dense, starting at 0. *)
val intern : t -> string -> int

(** [find t name] is the id of [name] if already interned. *)
val find : t -> string -> int option

(** [name t id] is the name with id [id].
    @raise Invalid_argument on an unknown id. *)
val name : t -> int -> string

(** [count t] is the number of interned names. *)
val count : t -> int

(** [names t] is all interned names in id order. *)
val names : t -> string list
