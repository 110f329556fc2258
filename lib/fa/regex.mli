(** Classical regular expressions over the byte alphabet.

    These are the plain regular expressions that regex formulas
    ({!Spanner_core.Regex_formula}) extend with variable bindings, and
    that refl regexes extend further with references.  The concrete
    syntax accepted by {!parse}:

    {v
      r ::= r r            concatenation
          | r '|' r        alternation
          | r '*'          Kleene star
          | r '+'          one or more
          | r '?'          optional
          | r '{' m '}'            exactly m repetitions
          | r '{' m ',' '}'        at least m repetitions
          | r '{' m ',' n '}'      between m and n repetitions
          | '(' r ')'
          | '.'            any character
          | '[' class ']'  character class, ranges and '^' negation
          | c              literal character
          | '\' c          escaped literal
    v}

    Escapes are required for the metacharacters [|*+?()[]{}.\&!].
    Inside a class, ['\'] escapes the next byte, so ['\\'], ['\]'],
    ['\^'] and ['\-'] are literal members. *)

type t =
  | Empty  (** the empty language ∅ *)
  | Epsilon  (** the language {ε} *)
  | Chars of Charset.t  (** one character from the class *)
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

(** {1 Smart constructors}

    These apply the obvious simplifications ([Empty] annihilates
    concatenation, [Epsilon] is its unit, etc.) so that derived
    expressions stay small. *)

val empty : t
val epsilon : t
val chars : Charset.t -> t
val char : char -> t

(** [str s] matches exactly the string [s]. *)
val str : string -> t

val concat : t -> t -> t
val alt : t -> t -> t
val star : t -> t
val plus : t -> t
val opt : t -> t

(** [concat_list rs] chains [rs] by {!concat}. *)
val concat_list : t list -> t

(** [alt_list rs] combines [rs] by {!alt} ([empty] if the list is
    empty). *)
val alt_list : t list -> t

(** {1 Analysis} *)

(** [nullable r] tests whether ε ∈ L(r). *)
val nullable : t -> bool

(** [is_empty_lang r] tests whether L(r) = ∅. *)
val is_empty_lang : t -> bool

(** [size r] is the number of AST nodes. *)
val size : t -> int

(** {1 Parsing and printing} *)

(** {1 Repetition caps}

    Bounded repetitions ["a{m,n}"] expand syntactically, so nested
    counted repetitions multiply and adversarial input could OOM the
    parser.  Each application is capped: counts at most {!max_repeat}
    and the expanded subterm at most {!max_expansion} nodes; beyond
    either, parsing fails with {!Parse_error}. *)

val max_repeat : int

val max_expansion : int

exception Parse_error of string * int
(** [Parse_error (message, position)] carries a 0-based offset into the
    input. *)

(** [parse s] parses the concrete syntax above.
    @raise Parse_error on malformed input. *)
val parse : string -> t

(** {1 The regex family's one parser}

    Regex formulas ({!Spanner_core.Regex_formula}) and refl regexes
    ({!Spanner_refl.Refl_regex}) share this grammar — classes, bounded
    repetition, postfix operators, atoms — and add atoms of their own.
    A ['a syntax] names the AST builders of one grammar: its smart
    constructors and the two optional atoms

    {v
      '!' x '{' r '}'   binding of variable x (when [bind] is given)
      '&' x             reference to variable x (when [reference] is given)
    v}

    with [x] a non-empty run of [[a-zA-Z0-9_]].  Without them, ['!'] and
    ['&'] are reserved characters; ['}'] ends a term only inside a
    binding and is reserved elsewhere. *)

type 'a syntax = {
  epsilon : 'a;
  chars : Charset.t -> 'a;
  concat : 'a -> 'a -> 'a;
  alt : 'a -> 'a -> 'a;
  star : 'a -> 'a;
  plus : 'a -> 'a;
  opt : 'a -> 'a;
  bind : (string -> 'a -> 'a) option;
  reference : (string -> 'a) option;
}

(** [parse_with ~size syn s] parses [s] into [syn]'s AST; [size] counts
    a subterm's nodes for the repetition caps.  {!parse} is
    [parse_with] over this module's constructors, with neither
    extension.
    @raise Parse_error on malformed input. *)
val parse_with : size:('a -> int) -> 'a syntax -> string -> 'a

(** [fold syn r] rebuilds [r] bottom-up through [syn], the inverse of
    {!parse_with}; [Empty] is [syn.chars Charset.empty].  The other two
    families have the same fold, so the instances below serve all
    three.  Siblings are folded in unspecified order: the constructions
    delay their effects into thunks, which run left to right. *)
val fold : 'a syntax -> t -> 'a

(** {1 Instances shared by the three families} *)

(** [sizer] counts AST nodes; [size] is [fold sizer]. *)
val sizer : int syntax

(** [names ~empty ~union ~add] collects the bound and referenced
    variable names into a set: a reference to [x] is [add x empty]. *)
val names : empty:'s -> union:('s -> 's -> 's) -> add:(string -> 's -> 's) -> 's syntax

(** A term folded for printing; see {!printer}. *)
type printed

(** [printer] renders terms in the concrete syntax, with the fewest
    parentheses the precedences need.  A reference that an identifier
    byte follows is printed as [(&x)], so the name cannot swallow the
    byte on re-parse. *)
val printer : printed syntax

(** [print ppf p] prints a folded term. *)
val print : Format.formatter -> printed -> unit

(** One node of a term under construction, its children already built
    into handles ['h].  A class that is empty arrives as [Empty]. *)
module Node : sig
  type 'h t =
    | Empty
    | Epsilon
    | Chars of Charset.t
    | Concat of 'h * 'h
    | Alt of 'h * 'h
    | Star of 'h
    | Plus of 'h
    | Opt of 'h
    | Bind of string * 'h
    | Ref of string
end

(** [walk ~fresh ~wire] is a construction in thunks: each node
    allocates its handle with [fresh] before its children's, builds them
    left to right, then [wire]s itself to them.  Running the folded
    thunk returns the root's handle. *)
val walk : fresh:(unit -> 'h) -> wire:('h -> 'h Node.t -> unit) -> (unit -> 'h) syntax

(** [thompson ~state ~eps ~chars ?mark ?reference ()] is the Thompson
    construction over an automaton's builder: a {!walk} whose handles
    are (entry, exit) pairs of [state]s, wired by [eps], [chars] (never
    given an empty class), [mark] (a binding's two marker arcs) and
    [reference] arcs.
    @raise Invalid_argument on a binding without [mark] or a reference
    without [reference]. *)
val thompson :
  state:(unit -> int) ->
  eps:(int -> int -> unit) ->
  chars:(int -> Charset.t -> int -> unit) ->
  ?mark:(int -> opening:bool -> string -> int -> unit) ->
  ?reference:(int -> string -> int -> unit) ->
  unit ->
  (unit -> int * int) syntax

(** [pp ppf r] prints a parseable rendering of [r]. *)
val pp : Format.formatter -> t -> unit

(** [to_string r] is {!pp} to a string. *)
val to_string : t -> string

(** {1 Metacharacter helpers} *)

(** [is_meta c] tests whether [c] must be escaped in literals. *)
val is_meta : char -> bool

(** [escape s] escapes the metacharacters of [s] so that
    [parse (escape s)] matches exactly [s]. *)
val escape : string -> string
