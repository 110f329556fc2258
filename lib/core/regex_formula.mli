(** Regex formulas (the class RGX of [9], §1/§2.2).

    Regular expressions over Σ in which proper sub-expressions may be
    enclosed in variable bindings ⊢x … ⊣x.  By construction the
    bindings of a regex formula are hierarchical: bracket pairs for
    different variables are nested or disjoint, which is why RGX
    describes strictly fewer spanners than vset-automata but the same
    class once closed under {∪, ⋈, π} (§2.2).

    Concrete syntax: the classical regex syntax of
    {!Spanner_fa.Regex.parse} extended with

    {v  !x{ α }     binding of variable x around sub-formula α  v}

    For instance Example 1.1 of the paper is
    [!x{[ab]*}!y{b}!z{[ab]*}]. *)

type t =
  | Empty
  | Epsilon
  | Chars of Spanner_fa.Charset.t
  | Bind of Variable.t * t  (** ⊢x α ⊣x *)
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

(** {1 Smart constructors} *)

val empty : t
val epsilon : t
val chars : Spanner_fa.Charset.t -> t
val char : char -> t
val str : string -> t
val bind : Variable.t -> t -> t
val concat : t -> t -> t
val alt : t -> t -> t
val star : t -> t
val plus : t -> t
val opt : t -> t
val concat_list : t list -> t
val alt_list : t list -> t

(** [fold syn f] rebuilds [f] bottom-up through [syn]
    ({!Spanner_fa.Regex.fold} with bindings): the printer, {!size},
    {!vars}, the embedding into refl regexes and the automaton
    constructions are all folds.
    @raise Invalid_argument if [f] binds a variable and [syn.bind] is
    [None]. *)
val fold : 'a Spanner_fa.Regex.syntax -> t -> 'a

(** [of_regex r] embeds a plain regex. *)
val of_regex : Spanner_fa.Regex.t -> t

(** {1 Analysis} *)

(** [vars f] is the set of variables bound anywhere in [f]. *)
val vars : t -> Variable.Set.t

(** Functionality classification of a formula (§2.2):
    - [Total]: on every word of the formula's language, every variable
      of [vars f] is marked exactly once — the spanner is functional.
    - [Schemaless]: every variable is marked at most once, but some
      alternative or optional branch can omit one — meaningful under
      the schemaless semantics of [27].
    - [Ill_formed reason]: some derivation could mark a variable twice
      (a binding under [*]/[+], a variable bound on both sides of a
      concatenation, or nested bindings of the same variable) — such an
      expression does not denote a subword-marked language. *)
type functionality = Total | Schemaless | Ill_formed of string

val functionality : t -> functionality

(** [is_well_formed f] is [functionality f <> Ill_formed _]. *)
val is_well_formed : t -> bool

(** [size f] is the number of AST nodes. *)
val size : t -> int

(** {1 Parsing and printing} *)

(** [parse s] parses the concrete syntax above.
    @raise Spanner_fa.Regex.Parse_error on malformed input. *)
val parse : string -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
