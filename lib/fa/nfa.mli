(** Nondeterministic finite automata with ε-transitions over the byte
    alphabet.

    States are dense integers.  Construction is by mutation through
    {!Builder}; a finished automaton is immutable.  All the classical
    closure properties the paper relies on (§2.1, §2.4) are provided:
    union, concatenation, star, intersection (product), and the
    decision procedures membership, emptiness, containment and
    equivalence (the latter two via {!Dfa}). *)

type t

type state = int

(** {1 Construction} *)

module Builder : sig
  type nfa := t
  type t

  (** [create ()] is an empty builder with no states. *)
  val create : unit -> t

  (** [add_state b] allocates a fresh state. *)
  val add_state : t -> state

  (** [add_eps b src dst] adds an ε-transition. *)
  val add_eps : t -> state -> state -> unit

  (** [add_chars b src cs dst] adds a transition reading any character
      of [cs]. *)
  val add_chars : t -> state -> Charset.t -> state -> unit

  (** [add_char b src c dst] is [add_chars] with a singleton. *)
  val add_char : t -> state -> char -> state -> unit

  (** [finish b ~initial ~finals] freezes the builder. *)
  val finish : t -> initial:state -> finals:state list -> nfa
end

(** [of_regex r] is the Thompson construction for [r]. *)
val of_regex : Regex.t -> t

(** {1 Accessors} *)

(** [size n] is the number of states. *)
val size : t -> int

(** [initial n] is the initial state. *)
val initial : t -> state

(** [finals n] is the accepting states. *)
val finals : t -> state list

(** [is_final n q] tests acceptance of state [q]. *)
val is_final : t -> state -> bool

(** [iter_transitions n q f] applies [f cs dst] to each labelled
    transition out of [q] ([cs] never empty), and [f] is not called on
    ε-transitions. *)
val iter_transitions : t -> state -> (Charset.t -> state -> unit) -> unit

(** [iter_eps n q f] applies [f dst] to each ε-transition out of [q]. *)
val iter_eps : t -> state -> (state -> unit) -> unit

(** {1 Language operations} *)

(** [union a b] accepts L(a) ∪ L(b). *)
val union : t -> t -> t

(** [concat a b] accepts L(a)·L(b). *)
val concat : t -> t -> t

(** [star a] accepts L(a){^ *}. *)
val star : t -> t

(** [inter a b] accepts L(a) ∩ L(b) (product construction; the
    operation §2.1 of the paper singles out as the one a language class
    must be closed under to serve as a spanner representation). *)
val inter : t -> t -> t

(** {1 Decision procedures} *)

(** [eps_closure n set] saturates a state set under ε-transitions,
    in place; the argument is returned for convenience. *)
val eps_closure : t -> Spanner_util.Bitset.t -> Spanner_util.Bitset.t

(** [step n set c] is the ε-closed set of states that reading [c]
    leads to from [set]: one step of the subset simulation. *)
val step : t -> Spanner_util.Bitset.t -> char -> Spanner_util.Bitset.t

(** [accepts n w] tests [w ∈ L(n)] by on-the-fly subset simulation,
    O(|w|·|n|). *)
val accepts : t -> string -> bool

(** [is_empty_lang n] tests L(n) = ∅ (reachability). *)
val is_empty_lang : t -> bool

(** [shortest_word n] is a shortest member of L(n), or [None] if the
    language is empty (breadth-first search). *)
val shortest_word : t -> string option

(** [reachable_from_initial n] is the set of reachable states. *)
val reachable_from_initial : t -> Spanner_util.Bitset.t

(** [coreachable_to_final n] is the set of states from which some final
    state is reachable. *)
val coreachable_to_final : t -> Spanner_util.Bitset.t

(** [trim n] restricts [n] to useful (reachable and co-reachable)
    states.  The result accepts the same language; if the language is
    empty the result has a single non-accepting state. *)
val trim : t -> t

(** [contains a b] tests L(b) ⊆ L(a), via determinization. *)
val contains : t -> t -> bool

(** [equal_lang a b] tests L(a) = L(b), via determinization. *)
val equal_lang : t -> t -> bool
