open Spanner_core
module Limits = Spanner_util.Limits
module Slp_spanner = Spanner_slp.Slp_spanner
module Incr = Spanner_incr.Incr
module Tuple_set = Set.Make (Span_tuple)

(* Take-views share the underlying stream with their parent, so the
   pull state (engine position, lookahead slot, pull count) lives in
   shared refs; only [budget] — how many tuples this view may still
   deliver — is per-view. *)
type t = {
  vars : Variable.Set.t;
  gauge : Limits.gauge;
  pull : unit -> Span_tuple.t option;
  pulled : int ref;
  finished : bool ref;
  peeked : Span_tuple.t option ref;
  mutable budget : int;
}

(* ------------------------------------------------------------------ *)
(* Constructors *)

let of_fun ~gauge ~vars pull =
  {
    vars;
    gauge;
    pull;
    pulled = ref 0;
    finished = ref false;
    peeked = ref None;
    budget = max_int;
  }

(* Set-semantics view of a run enumeration: tuples already seen are
   skipped.  The table is real memory and real work that the caller's
   budget must see, so every pulled run — a skipped duplicate as much
   as a retained insert — consumes one gauge step; only retained
   tuples reach the per-pull tuple cap probe in [engine_pull]. *)
let dedup_wrap gauge pull =
  let seen = ref Tuple_set.empty in
  let rec fresh () =
    match pull () with
    | None -> None
    | Some t ->
        Limits.check gauge;
        if Tuple_set.mem t !seen then fresh ()
        else begin
          seen := Tuple_set.add t !seen;
          Some t
        end
  in
  fresh

let of_compiled ?(gauge = Limits.unlimited ()) p =
  let cur = Compiled.cursor p in
  of_fun ~gauge ~vars:(Compiled.prepared_vars p) (fun () -> Compiled.cursor_next cur)

(* The native engines pull their own machines directly — no effect
   handler, no fiber, no per-pull context switch.  Deduplication (only
   when the automaton can repeat tuples, a fact each engine caches at
   construction) goes through the metered wrapper above. *)

let of_slp ?(gauge = Limits.unlimited ()) engine id =
  let cur = Slp_spanner.cursor engine id in
  let raw () = Slp_spanner.cursor_next cur in
  let pull = if Slp_spanner.nondeterministic engine then dedup_wrap gauge raw else raw in
  of_fun ~gauge ~vars:(Slp_spanner.vars engine) pull

let of_incr ?(gauge = Limits.unlimited ()) session id =
  let cur = Incr.cursor ~gauge session id in
  let raw () = Incr.cursor_next cur in
  let pull = if Incr.nondeterministic session then dedup_wrap gauge raw else raw in
  of_fun ~gauge ~vars:(Compiled.vars (Incr.compiled session)) pull

let of_relation r =
  let rest = ref (Span_relation.tuples r) in
  of_fun ~gauge:(Limits.unlimited ()) ~vars:(Span_relation.schema r) (fun () ->
      match !rest with
      | [] -> None
      | t :: ts ->
          rest := ts;
          Some t)

(* ------------------------------------------------------------------ *)
(* Consuming *)

let vars c = c.vars
let pulls c = !(c.pulled)

(* One metered engine pull, through the shared lookahead slot. *)
let engine_pull c =
  match !(c.peeked) with
  | Some _ as t ->
      c.peeked := None;
      t
  | None ->
      if !(c.finished) then None
      else (
        match c.pull () with
        | None ->
            c.finished := true;
            None
        | Some _ as t ->
            incr c.pulled;
            Limits.tick_tuple c.gauge !(c.pulled);
            t)

let next c =
  if c.budget <= 0 then None
  else
    match engine_pull c with
    | None -> None
    | Some _ as t ->
        c.budget <- c.budget - 1;
        t

let peek c =
  if c.budget <= 0 then None
  else
    match !(c.peeked) with
    | Some _ as t -> t
    | None -> (
        match engine_pull c with
        | None -> None
        | Some _ as t ->
            c.peeked := t;
            t)

let rec drop c k = if k > 0 then match next c with None -> () | Some _ -> drop c (k - 1)
let take c k = { c with budget = min c.budget (max 0 k) }

let iter c f =
  let rec go () =
    match next c with
    | None -> ()
    | Some t ->
        f t;
        go ()
  in
  go ()

let fold c init f =
  let acc = ref init in
  iter c (fun t -> acc := f !acc t);
  !acc

let cardinal c = fold c 0 (fun n _ -> n + 1)
let to_list c = List.rev (fold c [] (fun acc t -> t :: acc))
let to_relation c = fold c (Span_relation.empty c.vars) Span_relation.add
