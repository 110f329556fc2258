open Spanner_core

type t = { core : Core_spanner.t; engine : Slp_spanner.engine; hash : Slp_hash.t }

let create core store =
  {
    core;
    engine = Slp_spanner.create core.Core_spanner.automaton store;
    hash = Slp_hash.create store;
  }

let selections_hold t id =
  Core_spanner.selections_hold
    ~equal:(fun a b ->
      Slp_hash.factor_equal t.hash id (Span.left a, Span.right a) (Span.left b, Span.right b))
    t.core.Core_spanner.selections

(* The automaton's tuples on 𝔇(id), pulled one at a time from the
   native cursor.  The engine is deterministic unless its subset
   construction tripped the cap ([Compiled.of_evset]); then a tuple
   may come once per run, which [eval]'s relation absorbs and
   [nonempty_on] does not care about. *)
let tuples t id =
  Slp_spanner.prepare t.engine id;
  let cur = Slp_spanner.cursor t.engine id in
  fun () -> Slp_spanner.cursor_next cur

let eval t id =
  let next = tuples t id in
  let rec go r =
    match next () with
    | None -> r
    | Some tuple ->
        go
          (if selections_hold t id tuple then
             Span_relation.add r (Span_tuple.project t.core.Core_spanner.projection tuple)
           else r)
  in
  go (Span_relation.empty (Core_spanner.schema t.core))

let nonempty_on t id =
  let next = tuples t id in
  let rec go () =
    match next () with None -> false | Some tuple -> selections_hold t id tuple || go ()
  in
  go ()

let count t id = Span_relation.cardinal (eval t id)
