(** Regular expressions denoting ref-languages (§3.1).

    The regex-formula syntax extended with references: [&x] matches a
    copy of whatever x's span extracted.  Example (3) of the paper,

    {v  a b* ⊢x (a∨b)* ⊣x (b∨c)* ⊢y x ⊣y b*  v}

    is written [ab*!x{[ab]*}[bc]*!y{&x}b*]. *)

open Spanner_core

type t =
  | Empty
  | Epsilon
  | Chars of Spanner_fa.Charset.t
  | Bind of Variable.t * t
  | Ref of Variable.t
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
val reference : Variable.t -> t
val concat : t -> t -> t
val alt : t -> t -> t
val star : t -> t
val plus : t -> t
val opt : t -> t
val concat_list : t list -> t
val alt_list : t list -> t

(** [syntax] is this module's smart constructors, with both
    extensions. *)
val syntax : t Spanner_fa.Regex.syntax

(** [fold syn r] rebuilds [r] bottom-up through [syn]
    ({!Spanner_fa.Regex.fold} with bindings and references).
    @raise Invalid_argument if [r] has a binding or a reference and
    [syn] lacks that extension. *)
val fold : 'a Spanner_fa.Regex.syntax -> t -> 'a

(** [of_formula f] embeds a plain regex formula (no references). *)
val of_formula : Regex_formula.t -> t

(** [vars r] is the set of variables bound or referenced. *)
val vars : t -> Variable.Set.t

(** [size r] is the number of AST nodes. *)
val size : t -> int

(** [parse s] parses the concrete syntax.
    @raise Spanner_fa.Regex.Parse_error on malformed input. *)
val parse : string -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
