(** Sets of byte characters, the transition labels of classical
    automata and the character-class literals of regular expressions. *)

type t

(** [empty] contains no characters. *)
val empty : t

(** [full] contains all 256 byte characters. *)
val full : t

(** [singleton c] contains exactly [c]. *)
val singleton : char -> t

(** [of_string s] contains exactly the characters occurring in [s]. *)
val of_string : string -> t

(** [range lo hi] contains the characters [lo..hi] inclusive. *)
val range : char -> char -> t

(** [add cs c] is [cs ∪ {c}]. *)
val add : t -> char -> t

(** [mem cs c] tests membership. *)
val mem : t -> char -> bool

(** [union a b], [inter a b], [diff a b] are the set operations. *)
val union : t -> t -> t

val inter : t -> t -> t
val diff : t -> t -> t

(** [complement cs] is [full \ cs]. *)
val complement : t -> t

(** [is_empty cs] tests emptiness. *)
val is_empty : t -> bool

(** [cardinal cs] is the number of characters. *)
val cardinal : t -> int

(** [iter f cs] applies [f] to each member in ascending byte order. *)
val iter : (char -> unit) -> t -> unit

(** [elements cs] lists the members in ascending byte order. *)
val elements : t -> char list

(** [choose cs] is the smallest member, or [None]. *)
val choose : t -> char option

(** [equal a b] is extensional equality. *)
val equal : t -> t -> bool

(** [byte_classes sets] partitions the 256 bytes into equivalence
    classes with respect to [sets]: two bytes land in the same class
    iff no charset of [sets] separates them.  Returns
    [(class_of, count)] where [class_of] has 256 entries mapping each
    byte to its class in [0..count-1].  Transition tables indexed by
    class instead of byte are equivalent ([mem] is constant on every
    class) and typically far smaller. *)
val byte_classes : t list -> int array * int

(** [pp ppf cs] prints a compact, regex-like rendering such as
    [[a-cx]].  Inside the brackets, ['\\'], [']'], ['^'] and ['-'] are
    escaped, so {!Regex.parse} reads a class back as [cs]. *)
val pp : Format.formatter -> t -> unit
