(* The enumeration engine proper lives in {!Compiled}: the spanner is
   compiled once into dense transition tables and the per-document
   pass is array indexing only.  This module keeps the historical API
   (used throughout the library) as a thin wrapper — each call
   compiles the spanner and runs the document pass, which is what the
   original implementation effectively re-did per document anyway. *)

type prepared = Compiled.prepared

type stats = { nodes : int; edges : int; boundaries : int }

let prepare ?limits e doc = Compiled.prepare ?limits (Compiled.of_evset ?limits e) doc

let stats p =
  let s = Compiled.stats p in
  { nodes = s.Compiled.nodes; edges = s.Compiled.edges; boundaries = s.Compiled.boundaries }

let cardinal = Compiled.cardinal
let iter = Compiled.iter
let to_seq = Compiled.to_seq
let first = Compiled.first

let to_relation ?limits e doc = Compiled.eval ?limits (Compiled.of_evset ?limits e) doc
