(** Datalog over regular spanners (RGXLog, [33]; mentioned in §1 of the
    paper: "datalog over regular spanners covers the whole class of
    core spanners").

    A program is a set of rules whose body literals are

    - {b spanner atoms}: a regular spanner evaluated on the document,
      its variables bound to rule variables,
    - {b IDB atoms}: intensional predicates over spans,
    - {b built-ins}: content equality (the string-equality selection
      ς= as a predicate — the feature that lets non-recursive programs
      express every core spanner) and span adjacency.

    Evaluation is bottom-up semi-naïve fixpoint over relations of span
    rows.  All values are spans of the one input document, so every
    program terminates: the domain Spans(D) is finite (§1). *)

open Spanner_core

(** A body literal; rule variables are strings. *)
type literal =
  | Spanner of Evset.t * (Variable.t * string) list
      (** [Spanner (e, bindings)]: a tuple t ∈ ⟦e⟧(D) with t(v) bound
          to rule variable r for each [(v, r)] binding.  Spanner
          variables omitted from [bindings] are ignored; tuples leaving
          a bound variable ⊥ do not match. *)
  | Idb of string * string list  (** intensional atom P(x, …) *)
  | Content_eq of string * string
      (** contents of the two spans are equal (built-in ς=) *)
  | Adjacent of string * string
      (** right end of the first span = left end of the second *)

type rule = { head : string * string list; body : literal list }

type program

(** [make rules] validates and compiles a program:
    - consistent arities for every IDB predicate;
    - range restriction: every head variable occurs in a positive body
      atom (spanner or IDB);
    - built-in safety: both arguments of a built-in are bound by
      earlier literals in the body.
    @raise Invalid_argument with a reason otherwise. *)
val make : rule list -> program

(** [run ?limits p doc] computes the least fixpoint of [p] over [doc].
    Each distinct spanner atom is materialised once on the plain text,
    through {!Compiled.of_evset} and {!Compiled.eval}.  Under [limits],
    that materialisation is metered as those calls meter it, every
    binding step of the semi-naïve fixpoint consumes fuel, the
    deadline is probed periodically, and genuinely new derived facts
    count against the tuple cap
    ({!Spanner_util.Limits.Spanner_error} on violation). *)
type result

val run : ?limits:Spanner_util.Limits.t -> program -> string -> result

(** [facts r pred] is the set of derived rows of [pred], sorted.
    @raise Not_found for an unknown predicate. *)
val facts : result -> string -> Span.t array list

(** [fact_count r pred] is the number of derived rows. *)
val fact_count : result -> string -> int

(** [iterations r] is the number of semi-naïve rounds to fixpoint. *)
val iterations : result -> int

(** {1 Concrete syntax}

    {v
      program  ::= rule*
      rule     ::= atom ":-" literal ("," literal)* "."
      atom     ::= ident "(" ident ("," ident)* ")"
      literal  ::= atom                       IDB atom
                 | "streq" "(" x "," y ")"    content equality (ς=)
                 | "adj" "(" x "," y ")"      span adjacency
                 | "<" formula ">" "(" binding ("," binding)* ")"
                                              spanner atom; formula is
                                              regex-formula syntax
      binding  ::= spanner_var "=" rule_var | ident   (same name both sides)
      comments ::= "%" to end of line
    v}

    Example (transitive closure of equal neighbouring fields):

    {v
      eq(x, y) :- <([ab]+;)*!x{[ab]+};!y{[ab]+};([ab]+;)*>(x, y), streq(x, y).
      chain(x, y) :- eq(x, y).
      chain(x, z) :- chain(x, y), eq(y, z).
    v} *)

(** [parse ?limits s] parses and validates a program.  Syntax errors —
    including those of embedded spanner formulas, re-anchored at their
    offset in [s] — raise {!Spanner_util.Limits.Spanner_error} with
    [Parse {what = "datalog"; _}]; validation failures keep raising
    [Invalid_argument] ({!make}).  [limits] governs the
    formula-to-automaton construction of spanner atoms
    ({!Evset.of_formula}). *)
val parse : ?limits:Spanner_util.Limits.t -> string -> program
