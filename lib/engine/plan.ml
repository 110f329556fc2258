open Spanner_core
module Limits = Spanner_util.Limits
module Pool = Spanner_util.Pool
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db
module Slp_spanner = Spanner_slp.Slp_spanner
module Arena = Spanner_store.Arena
module Corpus = Spanner_store.Corpus
module Incr = Spanner_incr.Incr

type input =
  | Doc of string
  | Docs of (string * string) array
  | Slp_node of Slp.store * Slp.id
  | Db of Doc_db.t
  | Packed of Corpus.t
  | Session of Incr.session * string

type choice = [ `Compiled | `Compressed | `Decompress | `Incr ]

type t = {
  ct : Compiled.t;
  input : input;
  choice : choice;
  facts : unit -> (string * string) list;  (* built only when printed *)
  why : string;
}

let choice p = p.choice
let input p = p.input
let rationale p = (p.facts (), p.why)

(* A matrix sweep costs O(nodes) boolean products against the O(bytes)
   dense-table scan; below this compression ratio the products lose. *)
let sweep_threshold = 2.0

let ratio bytes nodes = float_of_int bytes /. float_of_int (max 1 nodes)
let pp_ratio r = Printf.sprintf "%.1fx" r

let spanner_fact ct = ("spanner", Compiled.describe ct)

let fits input (c : choice) =
  match (input, c) with
  | (Doc _ | Docs _), `Compiled -> true
  | (Slp_node _ | Db _ | Packed _), (`Compressed | `Decompress) -> true
  | Session _, `Incr -> true
  | _ -> false

(* [make] computes only what the choice needs — for the compressed
   shapes, bytes and nodes (an O(|S|) walk for [Slp_node] and [Db]) —
   and captures it.  Every other fact is built on demand by
   [rationale]/[pp], so a plan that is only executed (a session read,
   one batch job) never pays for explain's printout. *)
let make ?force ct input =
  let pick auto = match force with None -> auto | Some c -> c in
  (match force with
  | Some c when not (fits input c) ->
      invalid_arg "Plan.make: forced engine does not fit the input shape"
  | _ -> ());
  let choice, facts, why =
    match input with
    | Doc doc ->
        ( pick `Compiled,
          (fun () ->
            [ ("input", "plain document"); ("bytes", string_of_int (String.length doc)) ]),
          "uncompressed input: one linear dense-table pass, nothing to share" )
    | Docs docs ->
        ( pick `Compiled,
          (fun () ->
            let bytes = Array.fold_left (fun n (_, d) -> n + String.length d) 0 docs in
            [
              ("input", "plain documents");
              ("documents", string_of_int (Array.length docs));
              ("bytes", string_of_int bytes);
            ]),
          "plain files: compile once, parallel dense-table pass per document" )
    | Slp_node (store, id) ->
        let bytes = Slp.len store id and nodes = Slp.reachable_size store id in
        let r = ratio bytes nodes in
        let auto = if r >= sweep_threshold then `Compressed else `Decompress in
        ( pick auto,
          (fun () ->
            [
              ("input", "SLP document");
              ("bytes", string_of_int bytes);
              ("nodes", string_of_int nodes);
              ("ratio", pp_ratio r);
            ]),
          if r >= sweep_threshold then
            "compressible: the matrix sweep is linear in SLP nodes, not in the text"
          else "barely compressible: decompress-then-scan beats the matrix products" )
    | Db db ->
        let bytes = Doc_db.total_len db and nodes = Doc_db.compressed_size db in
        let r = ratio bytes nodes in
        let auto = if r >= sweep_threshold then `Compressed else `Decompress in
        ( pick auto,
          (fun () ->
            [
              ("input", "document database");
              ("documents", string_of_int (List.length (Doc_db.names db)));
              ("bytes", string_of_int bytes);
              ("shared nodes", string_of_int nodes);
              ("ratio", pp_ratio r);
            ]),
          if r >= sweep_threshold then
            "compressible: one shared sweep covers every document, enumeration fans out"
          else "barely compressible: decompress-then-scan beats the matrix products" )
    | Packed c ->
        let bytes = Corpus.total_len c and nodes = Corpus.node_count c in
        let r = ratio bytes nodes in
        let auto = if r >= sweep_threshold then `Compressed else `Decompress in
        ( pick auto,
          (fun () ->
            [
              ("input", "packed corpus");
              ("shards", string_of_int (Corpus.shard_count c));
              ("documents", string_of_int (Corpus.doc_count c));
              ("bytes", string_of_int bytes);
              ("nodes", string_of_int nodes);
              ("ratio", pp_ratio r);
              ("mapped", string_of_int (Corpus.mapped_bytes c) ^ " bytes");
            ]),
          if r >= sweep_threshold then
            "packed shards: per-shard sweeps run over the mapped columns, shard-parallel"
          else "barely compressible: decompress-then-scan beats the matrix products" )
    | Session (s, name) ->
        (* the choice is fixed, so nothing is resolved here: the
           document (and its O(|S|) reachable-node count) is read when
           the facts are printed, as the cursor reads it when created *)
        ( pick `Incr,
          (fun () ->
            let db = Incr.database s in
            let store = Doc_db.store db in
            let id = Doc_db.find db name in
            let st = Incr.stats s in
            [
              ("input", "CDE session");
              ("document", name);
              ("bytes", string_of_int (Slp.len store id));
              ("nodes", string_of_int (Slp.reachable_size store id));
              ( "cached summaries",
                Printf.sprintf "%d/%d" st.Incr.entries st.Incr.capacity );
            ]),
          "live session: cached per-node summaries price re-evaluation at new nodes only" )
  in
  let why = match force with None -> why | Some _ -> "forced by --engine: " ^ why in
  { ct; input; choice; facts = (fun () -> spanner_fact ct :: facts ()); why }

let choice_name = function
  | `Compiled -> "compiled"
  | `Compressed -> "compressed"
  | `Decompress -> "decompress"
  | `Incr -> "incr"

let pp ppf p =
  Format.fprintf ppf "plan: %s@." (choice_name p.choice);
  List.iter (fun (k, v) -> Format.fprintf ppf "  %s: %s@." k v) (p.facts ());
  Format.fprintf ppf "  why: %s@." p.why

(* ------------------------------------------------------------------ *)
(* Execution *)

(* Decompress-then-evaluate one frozen document under [g]: the
   decompression, the document pass and the stream all draw on the
   same budget. *)
let decompress_cursor g ct fz id =
  let doc = Slp.frozen_to_string ~gauge:g fz id in
  Cursor.of_compiled ~gauge:g (Compiled.prepare_with_gauge g ct doc)

let cursor ?(limits = Limits.none) p =
  let g = Limits.start limits in
  match (p.input, p.choice) with
  | Doc doc, _ -> Cursor.of_compiled ~gauge:g (Compiled.prepare_with_gauge g p.ct doc)
  | Slp_node (store, id), `Compressed ->
      let engine = Slp_spanner.of_compiled p.ct store in
      Slp_spanner.prepare_gauge g engine id;
      Cursor.of_slp ~gauge:g engine id
  | Slp_node (store, id), _ -> decompress_cursor g p.ct (Slp.freeze store) id
  | Session (s, name), _ -> Cursor.of_incr ~gauge:g s (Doc_db.find (Incr.database s) name)
  | (Docs _ | Db _ | Packed _), _ -> invalid_arg "Plan.cursor: batch input, use Plan.cursors"

(* A shared sweep that tripped leaves nothing to enumerate from, so
   every opener it covers re-raises its error. *)
let swept = function Ok engine -> engine | Error e -> raise e

(* [openers ?jobs ~limits p] is one [(name, open)] pair per document,
   in input order: [open ()] prepares the document and returns its
   cursor, metered by a gauge of its own.  Work a batch shares runs
   here, before any opener exists, under one gauge per sweep: a [Db]'s
   one sweep over the shared store, a [Packed] corpus's per-shard
   sweeps across [jobs] domains (engines straight over the mapped
   columns; a shard's sweep covers only its own documents, so a trip
   poisons only them). *)
let openers ?jobs ~limits p =
  let fresh () = Limits.start limits in
  match p.input with
  | Doc _ -> [| ("doc", fun () -> cursor ~limits p) |]
  | Slp_node _ -> [| ("slp", fun () -> cursor ~limits p) |]
  | Session (_, name) -> [| (name, fun () -> cursor ~limits p) |]
  | Docs docs ->
      Array.map
        (fun (name, doc) ->
          ( name,
            fun () ->
              let g = fresh () in
              Cursor.of_compiled ~gauge:g (Compiled.prepare_with_gauge g p.ct doc) ))
        docs
  | Db db -> (
      let names = Array.of_list (Doc_db.names db) in
      let roots = Array.map (Doc_db.find db) names in
      match p.choice with
      | `Decompress ->
          let fz = Doc_db.freeze db in
          Array.map2
            (fun name id -> (name, fun () -> decompress_cursor (fresh ()) p.ct fz id))
            names roots
      | _ ->
          (* one sweep covers every root: shared nodes once *)
          let engine =
            let engine = Slp_spanner.of_compiled p.ct (Doc_db.store db) in
            let g = fresh () in
            match Array.iter (fun id -> Slp_spanner.prepare_gauge g engine id) roots with
            | () -> Ok engine
            | exception e -> Error e
          in
          Array.map2
            (fun name id -> (name, fun () -> Cursor.of_slp ~gauge:(fresh ()) (swept engine) id))
            names roots)
  | Packed c -> (
      let shards = Corpus.shards c in
      let docs = Corpus.docs c in
      match p.choice with
      | `Decompress ->
          Array.map
            (fun (name, si, root) ->
              ( name,
                fun () ->
                  decompress_cursor (fresh ()) p.ct (Arena.frozen_view shards.(si)) root ))
            docs
      | _ ->
          let engines =
            Pool.mapi_result ?jobs
              (fun si a ->
                let engine = Slp_spanner.of_frozen p.ct (Arena.frozen_view a) in
                let g = fresh () in
                Array.iter
                  (fun (_, sj, root) -> if sj = si then Slp_spanner.prepare_gauge g engine root)
                  docs;
                engine)
              shards
          in
          Array.map
            (fun (name, si, root) ->
              (name, fun () -> Cursor.of_slp ~gauge:(fresh ()) (swept engines.(si)) root))
            docs)

let cursors ?(limits = Limits.none) p =
  Array.map
    (fun (name, open_) -> (name, match open_ () with c -> Ok c | exception e -> Error e))
    (openers ~jobs:1 ~limits p)

(* Enumeration only reads frozen snapshots, filled matrix slots and
   compiled tables, so openers fan out across domains; a one-element
   batch (every single-document shape, a [Session] among them) stays
   on the caller's domain. *)
let relations ?jobs ?(limits = Limits.none) p =
  let ops = openers ?jobs ~limits p in
  Pool.map_result ?jobs (fun (_, open_) -> Cursor.to_relation (open_ ())) ops
  |> Array.map2 (fun (name, _) r -> (name, r)) ops
