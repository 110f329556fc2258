(* Spanner evaluation over an SLP-compressed document database with
   complex document editing — the §4 scenario end to end:

   1. compress highly repetitive "log archives" into one shared SLP;
   2. strongly balance the SLP (§4.1);
   3. evaluate a regular spanner on each document *without
      decompressing* (§4.2: per-node boolean matrices + partial
      decompression during enumeration);
   4. edit the database with CDE expressions and re-query at
      logarithmic cost (§4.3).

   Run with:  dune exec examples/compressed_logs.exe *)

open Spanner_core
open Spanner_slp

let () =
  let db = Doc_db.create () in
  let store = Doc_db.store db in

  (* A very repetitive archive: 10000 "ok;" heartbeats with a few
     "err;" records sprinkled in.  LZ78 + strong balancing stores it in
     a tiny DAG. *)
  let archive =
    String.concat ""
      (List.init 10_000 (fun i -> if i mod 997 = 0 then "err;" else "ok;;"))
  in
  let night_shift = String.concat "" (List.init 5_000 (fun _ -> "ok;;")) in
  ignore (Doc_db.add_string db "day" archive);
  ignore (Doc_db.add_string db "night" night_shift);

  Format.printf "database: %d documents, %d characters total, %d SLP nodes@."
    (List.length (Doc_db.names db))
    (Doc_db.total_len db) (Doc_db.compressed_size db);

  (* The spanner: extract every error record. *)
  let spanner = Evset.of_formula (Regex_formula.parse "[ok;er]*!x{err}[ok;er]*") in
  let engine = Slp_spanner.create spanner store in

  let report name =
    let id = Doc_db.find db name in
    Slp_spanner.prepare engine id;
    Format.printf "%-14s |D| = %-7d errors = %-4d (matrices cached: %d)@." name
      (Slp.len store id)
      (Slp_spanner.tuple_count engine id)
      (Slp_spanner.matrices_computed engine)
  in
  List.iter report (Doc_db.names db);

  (* First few matches, pulled lazily from the prepared engine with
     only partial decompression: *)
  let cur = Slp_spanner.cursor engine (Doc_db.find db "day") in
  let rec show k =
    if k > 0 then
      match Slp_spanner.cursor_next cur with
      | Some tuple ->
          Format.printf "  match: %a@." Span_tuple.pp tuple;
          show (k - 1)
      | None -> ()
  in
  show 3;

  (* Complex document editing (§4.3): splice the first error region of
     "day" into "night", then append a fresh heartbeat block — all in
     O(|φ|·log d) node work; the spanner indexes update incrementally
     because matrices are memoised per node. *)
  let edit =
    Cde.Concat
      ( Cde.Insert (Cde.Doc "night", Cde.Extract (Cde.Doc "day", 1, 12), 9),
        Cde.Extract (Cde.Doc "night", 1, 40) )
  in
  Format.printf "applying CDE expression: %a@." Cde.pp edit;
  let before = Slp_spanner.matrices_computed engine in
  let patched = Cde.materialize db "night_patched" edit in
  let patched_errors = Slp_spanner.tuple_count engine patched in
  let new_matrices = Slp_spanner.matrices_computed engine - before in
  Format.printf "patched:       |D| = %-7d errors = %-4d (new matrices: %d)@."
    (Slp.len store patched) patched_errors new_matrices;

  (* Sanity: the compressed result equals decompress-and-evaluate. *)
  let doc = Slp.to_string store patched in
  assert (
    Span_relation.equal
      (Slp_spanner.to_relation engine patched)
      (Evset.eval spanner doc));
  Format.printf "compressed evaluation verified against decompression ✓@."
