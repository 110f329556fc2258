(** Exact [int] arithmetic for lengths and counts.

    A grammar of a few dozen nodes derives a document longer than
    [max_int] bytes, and the number of answers over a long document
    can pass [max_int] too (§4.2's exponential compression).  Plain
    [+] and [*] would wrap silently to a negative or a small value;
    these raise a typed error instead. *)

(** [add ~what a b] is [a + b].
    @raise Limits.Spanner_error [(Eval_failure {what; _})] when the
    exact sum is not an [int]. *)
val add : what:string -> int -> int -> int

(** [mul ~what a b] is [a * b].
    @raise Limits.Spanner_error [(Eval_failure {what; _})] when the
    exact product is not an [int]. *)
val mul : what:string -> int -> int -> int
