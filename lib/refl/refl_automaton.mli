(** Automata accepting regular ref-languages (§3.1).

    NFAs over Σ ∪ markers ∪ references: like vset-automata, with
    additional arcs labelled by a variable x that read the meta symbol
    x (a reference).  Refl-spanners are exactly the spanners described
    by such automata (via 𝔡(·), see {!Refl_word.deref}). *)

open Spanner_core

type state = int

type label =
  | Eps
  | Chars of Spanner_fa.Charset.t
  | Mark of Marker.t
  | Ref of Variable.t

type t

module Builder : sig
  type automaton := t

  type t

  val create : unit -> t
  val add_state : t -> state
  val add : t -> state -> label -> state -> unit
  val finish : t -> initial:state -> finals:state list -> vars:Variable.Set.t -> automaton
end

(** [of_regex r] is the Thompson construction for a refl regex. *)
val of_regex : Refl_regex.t -> t

val size : t -> int
val initial : t -> state
val finals : t -> state list
val is_final : t -> state -> bool
val vars : t -> Variable.Set.t
val iter_transitions : t -> state -> (label -> state -> unit) -> unit

(** [reachable a] is the set of states reachable from the initial
    state, and [coreachable a] the set of states from which a final
    state is reachable, along any arcs. *)
val reachable : t -> Spanner_util.Bitset.t

val coreachable : t -> Spanner_util.Bitset.t

(** [soundness a] checks that every accepted word is a well-formed
    ref-word (marker discipline; references only after the variable's
    close marker).  [Ok ()] certifies the evaluation algorithms'
    assumptions. *)
val soundness : t -> (unit, string) result

(** [reference_bounded a] tests reference-boundedness (§3.2): no
    accepting path traverses a cycle containing a reference arc, so
    some k bounds |w|_x for all accepted w.  Unbounded refl-spanners
    (e.g. ⊢x b+ ⊣x (a+ x)*, [9, Thm 6.1]) are provably not core
    spanners. *)
val reference_bounded : t -> bool

(** [max_ref_counts a] is, per variable, the maximum number of
    reference occurrences over accepting paths (only meaningful when
    {!reference_bounded}; used by the refl→core translation).
    @raise Invalid_argument if unbounded. *)
val max_ref_counts : t -> int Variable.Map.t
