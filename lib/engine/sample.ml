open Spanner_core
module Limits = Spanner_util.Limits

let default_bytes = 4096

type estimate = {
  sample_bytes : int;
  doc_bytes : int;
  tuples : int;
  nodes : int;
}

let prefix ?(bytes = default_bytes) doc =
  let bytes = max 0 bytes in
  if String.length doc <= bytes then doc else String.sub doc 0 bytes

let estimate ?limits ?bytes ct doc =
  let sample = prefix ?bytes doc in
  let p = Compiled.prepare ?limits ct sample in
  {
    sample_bytes = String.length sample;
    doc_bytes = String.length doc;
    (* a count past max_int only orders operands: saturate *)
    tuples =
      (match Compiled.cardinal p with
      | n -> n
      | exception Limits.Spanner_error (Limits.Eval_failure _) -> max_int);
    nodes = (Compiled.stats p).Compiled.nodes;
  }

let projected e =
  if e.sample_bytes <= 0 then float_of_int e.tuples
  else
    float_of_int e.tuples *. (float_of_int e.doc_bytes /. float_of_int e.sample_bytes)
