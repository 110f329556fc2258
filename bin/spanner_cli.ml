(* spanner-cli: command-line access to the document-spanner library.

   Subcommands:
     eval     evaluate a regex-formula spanner on a document
     batch    evaluate one spanner on many documents in parallel
     datalog  run a datalog-over-spanners program (RGXLog)
     enum     enumerate result tuples (optionally only the first k)
     refl     evaluate a refl-spanner (with &x references)
     analyze  static analysis of a spanner (§2.4)
     compress compress a document into an SLP and report statistics
     slpeval  evaluate a spanner over the compressed form (§4.2)
     edit     apply CDE edits and re-evaluate incrementally (§4.3)  *)

open Spanner_core
module Slp = Spanner_slp.Slp
module Builder = Spanner_slp.Builder
module Balance = Spanner_slp.Balance
module Slp_spanner = Spanner_slp.Slp_spanner
module Doc_db = Spanner_slp.Doc_db
module Corpus = Spanner_store.Corpus
module Limits = Spanner_util.Limits
module Pool = Spanner_util.Pool
module Cursor = Spanner_engine.Cursor
module Plan = Spanner_engine.Plan
module Optimizer = Spanner_engine.Optimizer

(* Exit-code contract: 0 ok; 1 evaluation failure / some documents of
   a batch failed; 2 usage, parse, or corrupt-input error; 3 resource
   limit exceeded (see Limits.exit_code). *)
exception Usage of string

let usage msg = raise (Usage msg)

let at_least_one flag n = if n < 1 then usage (Printf.sprintf "--%s must be at least 1" flag)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  (* strip one trailing newline so shell-created files behave *)
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s

let read_document doc file =
  match (doc, file) with
  | Some d, None -> d
  | None, Some path -> read_file path
  | Some _, Some _ -> usage "give either DOC or --file, not both"
  | None, None -> usage "missing document: give DOC or --file"

(* One shared-store database of the files, each its own document. *)
let db_of_files files =
  let db = Doc_db.create () in
  List.iter
    (fun file ->
      let doc = read_file file in
      if String.length doc = 0 then usage (file ^ ": SLPs derive non-empty documents");
      ignore (Doc_db.add_string db file doc))
    files;
  db

(* ------------------------------------------------------------------ *)
(* Streamed rendering (shared by eval/batch/edit).

   Every result now flows through a Plan + Cursor: [restrict] applies
   --offset/--limit as stream operations (no tuple beyond the window
   is ever pulled from the engine), and [render] realises --format.
   The default `Table output materialises the restricted stream and is
   byte-identical to the pre-planner output. *)

let restrict cursor ~offset ~limit =
  if offset > 0 then Cursor.drop cursor offset;
  match limit with Some k -> Cursor.take cursor k | None -> cursor

(* The streamed formats, every line after [prefix]; returns the number
   of tuples printed or counted. *)
let stream_lines ~prefix cursor = function
  | `Count ->
      let k = Cursor.cardinal cursor in
      Format.printf "%s%d@." prefix k;
      k
  | `Tuples ->
      Cursor.fold cursor 0 (fun k t ->
          Format.printf "%s%a@." prefix Span_tuple.pp t;
          k + 1)
  | `First -> (
      match Cursor.next cursor with
      | Some t ->
          Format.printf "%s%a@." prefix Span_tuple.pp t;
          1
      | None ->
          Format.printf "%s(no tuples)@." prefix;
          0)

let render ?doc cursor ~offset ~limit ~format =
  let cursor = restrict cursor ~offset ~limit in
  match format with
  | `Table ->
      let relation = Cursor.to_relation cursor in
      (match doc with
      | Some d -> Format.printf "%a" (Span_relation.pp ~doc:d) relation
      | None -> Format.printf "%a" (Span_relation.pp ?doc:None) relation);
      Format.printf "%d tuple(s)@." (Span_relation.cardinal relation)
  | (`Tuples | `Count | `First) as f -> ignore (stream_lines ~prefix:"" cursor f)

let error_message = function
  | Limits.Spanner_error err -> Limits.to_string err
  | e -> Printexc.to_string e

(* One document's lines in a batch ([batch], [query -f ...]): [lines]
   prints them and returns the document's tuple count.  A failing
   document costs only its own line; the `Table footer sums the rest. *)
let report_documents ~format ndocs docs =
  let total = ref 0 and failed = ref 0 in
  List.iter
    (fun (file, lines) ->
      match lines () with
      | k -> total := !total + k
      | exception e ->
          incr failed;
          Printf.eprintf "%s: %s\n%!" file (error_message e))
    docs;
  (match format with
  | `Table ->
      if !failed = 0 then Format.printf "%d document(s), %d tuple(s) total@." ndocs !total
      else Format.printf "%d document(s), %d failed, %d tuple(s) total@." ndocs !failed !total
  | _ -> ());
  if !failed > 0 then exit 1

(* A materialised document's line. *)
let relation_lines file = function
  | Error e -> raise e
  | Ok relation ->
      let k = Span_relation.cardinal relation in
      Format.printf "%s: %d tuple(s)@." file k;
      k

(* A streamed document's lines, through --offset/--limit/--format. *)
let cursor_lines file c ~offset ~limit ~format =
  let c = restrict c ~offset ~limit in
  match format with
  | `Table ->
      let k = Cursor.cardinal c in
      Format.printf "%s: %d tuple(s)@." file k;
      k
  | (`Tuples | `Count | `First) as f -> stream_lines ~prefix:(file ^ ": ") c f

(* ------------------------------------------------------------------ *)
(* eval *)

let eval_cmd formula doc file contents limits offset limit format =
  let document = read_document doc file in
  let ct = Compiled.of_formula ~limits (Regex_formula.parse formula) in
  let plan = Plan.make ct (Plan.Doc document) in
  let cursor = Plan.cursor ~limits plan in
  render ?doc:(if contents then Some document else None) cursor ~offset ~limit ~format

(* ------------------------------------------------------------------ *)
(* batch *)

let batch_cmd formula store files jobs engine limits offset limit format =
  if store = None && files = [] then
    usage "missing documents: give at least one FILE or --store";
  if store <> None && files <> [] then usage "give FILEs or --store, not both";
  if store <> None && engine = `Compiled then
    usage "--store is packed: use --engine compressed or decompress";
  (* Compilation failures (e.g. the state cap) abort the whole batch:
     with no compiled spanner there is nothing to degrade to.  Per-
     document failures below only cost their own slot. *)
  let ct = Compiled.of_formula ~limits (Regex_formula.parse formula) in
  Format.printf "compiled: %s@." (Compiled.describe ct);
  let plan =
    match store with
    | Some path ->
        (* mapped arena corpus: zero deserialization, the sweep runs
           straight over the packed columns *)
        let force =
          match engine with
          | `Auto | `Compiled -> None
          | (`Compressed | `Decompress) as e -> Some e
        in
        let c = Corpus.open_path path in
        Format.printf "store: %d shard(s), %d document(s), %d bytes mapped@."
          (Corpus.shard_count c) (Corpus.doc_count c) (Corpus.mapped_bytes c);
        Plan.make ?force ct (Plan.Packed c)
    | None -> (
        match engine with
        | (`Auto | `Compiled) as e ->
            let docs = Array.of_list (List.map (fun f -> (f, read_file f)) files) in
            let force = match e with `Compiled -> Some `Compiled | `Auto -> None in
            Plan.make ?force ct (Plan.Docs docs)
        | (`Compressed | `Decompress) as e ->
            (* Compress the files into one shared-store database, then
               evaluate in the compressed domain (or decompress from a
               frozen snapshot, for comparison). *)
            let db = db_of_files files in
            Format.printf "slp: %d shared nodes for %d bytes@."
              (Doc_db.compressed_size db) (Doc_db.total_len db);
            Plan.make ~force:e ct (Plan.Db db))
  in
  let ndocs =
    match Plan.input plan with
    | Plan.Packed c -> Corpus.doc_count c
    | _ -> List.length files
  in
  (* surface the effective domain count when the SPANNER_JOBS override
     is in play — otherwise job selection stays invisible *)
  (match Pool.env_jobs () with
  | Some _ -> Format.printf "jobs: %d (SPANNER_JOBS)@." (Pool.effective_jobs ?jobs ndocs)
  | None -> ());
  report_documents ~format ndocs
    (match (format, limit, offset) with
    | `Table, None, 0 ->
        (* no streaming flags: the parallel materialising path, output
           identical to the pre-planner batch *)
        Array.to_list (Plan.relations ?jobs ~limits plan)
        |> List.map (fun (file, result) -> (file, fun () -> relation_lines file result))
    | _ ->
        (* streaming flags: sequential per-document streams, early-
           terminating — no tuple beyond the window is enumerated *)
        Array.to_list (Plan.cursors ~limits plan)
        |> List.map (fun (file, slot) ->
               ( file,
                 fun () ->
                   let c = Result.fold ~ok:Fun.id ~error:raise slot in
                   cursor_lines file c ~offset ~limit ~format )))

(* ------------------------------------------------------------------ *)
(* pack *)

let pack_cmd files dbfile shards out =
  at_least_one "shards" shards;
  let db =
    match (dbfile, files) with
    | Some _, _ :: _ -> usage "give FILEs or --db, not both"
    | Some path, [] -> Spanner_slp.Serialize.read_file path
    | None, [] -> usage "missing documents: give FILEs or --db"
    | None, files -> db_of_files files
  in
  let written = Corpus.pack db ~shards out in
  Format.printf "packed %d document(s), %d bytes into %d shard(s)@."
    (List.length (Doc_db.names db))
    (Doc_db.total_len db) shards;
  List.iter
    (fun f -> Format.printf "wrote %s: %d bytes@." f (Unix.stat f).Unix.st_size)
    written

(* ------------------------------------------------------------------ *)
(* enum *)

let enum_cmd formula doc file limit =
  let document = read_document doc file in
  let prepared = Compiled.prepare (Compiled.of_formula (Regex_formula.parse formula)) document in
  let stats = Compiled.stats prepared in
  Format.printf "%d result(s); preprocessing: %d nodes, %d edges@."
    (Compiled.cardinal prepared) stats.Compiled.nodes stats.Compiled.edges;
  let cur = Compiled.cursor prepared in
  let rec show shown =
    match limit with
    | Some k when shown >= k -> ()
    | _ -> (
        match Compiled.cursor_next cur with
        | None -> ()
        | Some tuple ->
            Format.printf "%a@." Span_tuple.pp tuple;
            show (shown + 1))
  in
  show 0

(* ------------------------------------------------------------------ *)
(* refl *)

let refl_cmd formula doc file contents =
  let document = read_document doc file in
  let spanner =
    try Spanner_refl.Refl_spanner.parse formula
    with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let relation = Spanner_refl.Refl_spanner.eval spanner document in
  if contents then Format.printf "%a" (Span_relation.pp ~doc:document) relation
  else Format.printf "%a" (Span_relation.pp ?doc:None) relation;
  Format.printf "%d tuple(s)@." (Span_relation.cardinal relation)

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze_cmd formula dot =
  let f = Regex_formula.parse formula in
  if dot then begin
    Format.printf "%a" Evset.pp_dot (Evset.of_formula f);
    exit 0
  end;
  Format.printf "formula: %a@." Regex_formula.pp f;
  Format.printf "variables: %a@." Variable.pp_set (Regex_formula.vars f);
  (match Regex_formula.functionality f with
  | Regex_formula.Total -> Format.printf "functionality: total (classical semantics)@."
  | Regex_formula.Schemaless -> Format.printf "functionality: schemaless (some variable optional)@."
  | Regex_formula.Ill_formed reason ->
      Format.printf "ill-formed: %s@." reason;
      exit 1);
  let e = Evset.of_formula f in
  Format.printf "automaton states (extended form): %d@." (Evset.size e);
  Format.printf "satisfiable: %b@." (Evset.satisfiable e);
  Format.printf "hierarchical: %b@." (Evset.hierarchical e);
  match Evset.some_witness e with
  | Some (doc, tuple) -> Format.printf "witness: %S with %a@." doc Span_tuple.pp tuple
  | None -> Format.printf "witness: none@."

(* ------------------------------------------------------------------ *)
(* compress *)

let compress_cmd doc file output =
  let document = read_document doc file in
  if String.length document = 0 then usage "cannot compress the empty document";
  let store = Slp.create_store () in
  let raw = Builder.lz78 store document in
  let balanced = Balance.rebalance store raw in
  (match output with
  | Some path ->
      let db = Spanner_slp.Doc_db.create () in
      let store' = Spanner_slp.Doc_db.store db in
      let raw' = Builder.lz78 store' document in
      Spanner_slp.Doc_db.add db "doc" (Balance.rebalance store' raw');
      Spanner_slp.Serialize.write_file db path;
      Format.printf "wrote %s@." path
  | None -> ());
  let ord, log2 = Balance.depth_stats store balanced in
  Format.printf "document length: %d@." (String.length document);
  Format.printf "LZ78 SLP size:   %d nodes@." (Slp.reachable_size store raw);
  Format.printf "balanced size:   %d nodes (order %d, ⌈log₂ n⌉ = %d)@."
    (Slp.reachable_size store balanced) ord log2;
  Format.printf "strongly balanced: %b, 2-shallow: %b@."
    (Slp.is_strongly_balanced store balanced)
    (Slp.is_c_shallow store ~c:2.0 balanced)

(* ------------------------------------------------------------------ *)
(* slpeval *)

let slpeval_cmd formula doc file limit limits =
  let document = read_document doc file in
  if String.length document = 0 then usage "SLPs derive non-empty documents";
  let store = Slp.create_store () in
  let id = Balance.rebalance store (Builder.lz78 store document) in
  let spanner = Evset.of_formula ~limits (Regex_formula.parse formula) in
  let engine = Slp_spanner.create spanner store in
  (* one gauge spans the matrix sweep and the stream: --fuel and
     --deadline-ms govern both, --max-tuples fires mid-stream *)
  let g = Limits.start limits in
  Slp_spanner.prepare_gauge g engine id;
  (* the count has a gauge of its own: the stream below keeps its
     whole budget *)
  let results = Slp_spanner.tuple_count ~limits engine id in
  Format.printf "|D| = %d, SLP nodes = %d, matrices = %d, results = %d@."
    (Slp.len store id)
    (Slp.reachable_size store id)
    (Slp_spanner.matrices_computed engine)
    results;
  (* -n/--limit is now take on the stream — same budget taxonomy as
     --max-tuples, but a window rather than a failure *)
  let cursor = restrict (Cursor.of_slp ~gauge:g engine id) ~offset:0 ~limit in
  Cursor.iter cursor (fun tuple -> Format.printf "%a@." Span_tuple.pp tuple)

(* ------------------------------------------------------------------ *)
(* edit *)

let edit_cmd formula doc file exprs capacity show limits offset limit format =
  let document = read_document doc file in
  if String.length document = 0 then usage "SLPs derive non-empty documents";
  Option.iter (at_least_one "capacity") capacity;
  let db = Spanner_slp.Doc_db.create () in
  ignore (Spanner_slp.Doc_db.add_string db "doc" document);
  let store = Spanner_slp.Doc_db.store db in
  let ct = Compiled.of_formula ~limits (Regex_formula.parse formula) in
  let session = Spanner_incr.Incr.create ?cache_capacity:capacity ct db in
  (* one plan for the whole session: the designated "doc" is resolved
     at each cursor creation, so edits re-route automatically *)
  let plan = Plan.make ct (Plan.Session (session, "doc")) in
  let evaluate () = Cursor.to_relation (Plan.cursor ~limits plan) in
  let report label id relation =
    Format.printf "%s |D| = %d, %d tuple(s)@." label (Slp.len store id)
      (Span_relation.cardinal relation)
  in
  let bad msg =
    Printf.eprintf "error: %s\n" msg;
    exit 2
  in
  report "doc:" (Spanner_slp.Doc_db.find db "doc") (evaluate ());
  let last = ref None in
  List.iteri
    (fun k src ->
      let e = try Spanner_slp.Cde.parse src with Invalid_argument msg -> bad msg in
      match
        let id = Spanner_slp.Cde.materialize db "doc" e in
        (id, evaluate ())
      with
      | id, relation ->
          report (Format.asprintf "edit %d: %a ->" (k + 1) Spanner_slp.Cde.pp e) id relation;
          last := Some relation
      | exception Invalid_argument msg -> bad msg
      | exception Not_found -> bad ("unknown document name in " ^ src))
    exprs;
  (match (format, limit, offset) with
  | None, None, 0 -> (
      match (show, !last) with
      | true, Some relation -> Format.printf "%a" (Span_relation.pp ?doc:None) relation
      | _ -> ())
  | format, limit, offset ->
      (* streaming flags render the final document state through a
         fresh cursor (cached summaries make the re-walk cheap) *)
      let fmt = match format with Some f -> f | None -> `Table in
      render (Plan.cursor ~limits plan) ~offset ~limit ~format:fmt);
  let st = Spanner_incr.Incr.stats session in
  Format.printf "cache: %d hits, %d misses, %d evictions, %d entries (capacity %d), %d nodes created@."
    st.Spanner_incr.Incr.hits st.Spanner_incr.Incr.misses st.Spanner_incr.Incr.evictions
    st.Spanner_incr.Incr.entries st.Spanner_incr.Incr.capacity
    st.Spanner_incr.Incr.nodes_created

(* ------------------------------------------------------------------ *)
(* query *)

let query_cmd expr doc files jobs fuse_states contents limits offset limit format =
  let e = Algebra.parse ~load:read_file expr in
  (* the sample document prices join operands and annotates the plan;
     for a batch, the first file stands in for the rest *)
  let optimize sample = Optimizer.optimize ~limits ?fuse_states ~sample e in
  let single document =
    let plan = optimize document in
    render
      ?doc:(if contents then Some document else None)
      (Optimizer.cursor ~limits plan document)
      ~offset ~limit ~format
  in
  match (doc, files) with
  | Some _, _ :: _ -> usage "give either DOC or --file, not both"
  | None, [] -> usage "missing document: give DOC or --file"
  | Some document, [] -> single document
  | None, [ path ] -> single (read_file path)
  | None, paths ->
      let docs = List.map (fun f -> (f, read_file f)) paths in
      let plan = optimize (snd (List.hd docs)) in
      (match Optimizer.compiled plan with
      | Some ct -> Format.printf "fused: one automaton, %d states@." (Compiled.states ct)
      | None ->
          Format.printf "fused: %d automata under stream operators@."
            (Optimizer.fused_count plan));
      report_documents ~format (List.length docs)
        (match (Optimizer.compiled plan, format, limit, offset) with
        | Some ct, `Table, None, 0 ->
            (* the whole query is one automaton: reuse the planner's
               parallel materialising batch path *)
            let plan = Plan.make ct (Plan.Docs (Array.of_list docs)) in
            Array.to_list (Plan.relations ?jobs ~limits plan)
            |> List.map (fun (file, result) -> (file, fun () -> relation_lines file result))
        | _ ->
            (* stream operators above the fused automata: sequential
               per-document cursors, partial failures cost their slot *)
            List.map
              (fun (file, document) ->
                ( file,
                  fun () ->
                    let c = Optimizer.cursor ~limits plan document in
                    cursor_lines file c ~offset ~limit ~format ))
              docs)

(* ------------------------------------------------------------------ *)
(* explain *)

let explain_plan_cmd formula doc file slp session dbfile storefile limits =
  let ct = Compiled.of_formula ~limits (Regex_formula.parse formula) in
  let plan =
    match (dbfile, storefile) with
    | Some _, Some _ -> usage "give at most one of --db, --store"
    | _, Some path ->
        if slp || session then usage "give at most one of --slp, --session, --store";
        Plan.make ct (Plan.Packed (Corpus.open_path path))
    | Some path, None ->
        if slp || session then usage "give at most one of --slp, --session, --db";
        Plan.make ct (Plan.Db (Spanner_slp.Serialize.read_file path))
    | None, None ->
        let document = read_document doc file in
        if slp && session then usage "give at most one of --slp, --session, --db";
        if (slp || session) && String.length document = 0 then
          usage "SLPs derive non-empty documents";
        if session then begin
          let db = Spanner_slp.Doc_db.create () in
          ignore (Spanner_slp.Doc_db.add_string db "doc" document);
          let s = Spanner_incr.Incr.create ct db in
          (* warm the summary cache once so the plan reports the state
             a live session would actually be in *)
          ignore (Spanner_incr.Incr.eval_doc ~limits s "doc");
          Plan.make ct (Plan.Session (s, "doc"))
        end
        else if slp then begin
          let store = Slp.create_store () in
          let id = Balance.rebalance store (Builder.lz78 store document) in
          Plan.make ct (Plan.Slp_node (store, id))
        end
        else Plan.make ct (Plan.Doc document)
  in
  Format.printf "%a" Plan.pp plan

let explain_cmd formula doc file slp session dbfile storefile algebra fuse_states limits =
  if algebra then begin
    if slp || session || dbfile <> None || storefile <> None then
      usage "--algebra plans over plain documents (no --slp/--session/--db/--store)";
    let e = Algebra.parse ~load:read_file formula in
    let sample =
      match (doc, file) with None, None -> None | d, f -> Some (read_document d f)
    in
    let plan = Optimizer.optimize ~limits ?fuse_states ?sample e in
    Format.printf "%a" Optimizer.pp plan
  end
  else explain_plan_cmd formula doc file slp session dbfile storefile limits

(* ------------------------------------------------------------------ *)
(* datalog *)

let datalog_cmd program_file doc file query =
  let document = read_document doc file in
  let source =
    let ic = open_in_bin program_file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let program =
    try Spanner_datalog.Datalog.parse source
    with
    | Invalid_argument m ->
        Printf.eprintf "%s\n" m;
        exit 2
    | Spanner_fa.Regex.Parse_error (m, pos) ->
        Printf.eprintf "formula parse error at offset %d: %s\n" pos m;
        exit 2
  in
  let result = Spanner_datalog.Datalog.run program document in
  (match query with
  | Some pred -> (
      match Spanner_datalog.Datalog.facts result pred with
      | rows ->
          List.iter
            (fun row ->
              Format.printf "%s(%s)@." pred
                (String.concat ", " (Array.to_list (Array.map Span.to_string row))))
            rows;
          Format.printf "%d fact(s)@." (List.length rows)
      | exception Not_found ->
          Printf.eprintf "unknown predicate %s\n" pred;
          exit 2)
  | None ->
      Format.printf "fixpoint after %d round(s)@." (Spanner_datalog.Datalog.iterations result))

(* ------------------------------------------------------------------ *)
(* Command-line plumbing *)

open Cmdliner

let formula_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA" ~doc:"Spanner formula.")

let doc_arg =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"DOC" ~doc:"Document (inline).")

let doc_only_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"DOC" ~doc:"Document (inline).")

let file_arg =
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Read the document from $(docv).")

let contents_arg =
  Arg.(value & flag & info [ "c"; "contents" ] ~doc:"Print extracted factor contents next to spans.")

let limit_arg =
  Arg.(value & opt (some int) None & info [ "n"; "limit" ] ~docv:"K" ~doc:"Print at most $(docv) tuples.")

let offset_arg =
  Arg.(
    value & opt int 0
    & info [ "offset" ] ~docv:"K" ~doc:"Skip the first $(docv) result tuples of the stream.")

let format_arg =
  Arg.(
    value
    & opt (some (enum [ ("tuples", `Tuples); ("count", `Count); ("first", `First) ])) None
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Streamed output instead of the default table: $(b,tuples) prints each tuple as it \
           is pulled, $(b,count) prints only the count, $(b,first) prints the first tuple and \
           stops — with --limit/--offset, no tuple beyond the window is ever enumerated.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Evaluate documents with $(docv) parallel domains (default: all cores).")

let files_arg =
  Arg.(value & pos_right 0 file [] & info [] ~docv:"FILE" ~doc:"Document files.")

let catch f =
  try f () with
  | Usage m ->
      Printf.eprintf "usage error: %s\n" m;
      exit 2
  | Spanner_fa.Regex.Parse_error (msg, pos) ->
      Printf.eprintf "parse error at offset %d: %s\n" pos msg;
      exit 2
  | Failure m ->
      Printf.eprintf "error: %s\n" m;
      exit 2
  | Limits.Spanner_error e ->
      Printf.eprintf "error: %s\n" (Limits.to_string e);
      exit (Limits.exit_code e)
  | Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      exit 2

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:"Abort with exit code 3 after $(docv) evaluation steps (default: unbounded).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:"Abort with exit code 3 after $(docv) milliseconds of wall-clock time per document.")

let max_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-states" ] ~docv:"N"
        ~doc:"Reject spanners compiling to more than $(docv) automaton states (exit code 3).")

let max_tuples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-tuples" ] ~docv:"N"
        ~doc:"Abort with exit code 3 once a document yields more than $(docv) result tuples.")

let limits_term =
  Term.(
    const (fun fuel time_ms max_states max_tuples ->
        Limits.make ?fuel ?time_ms ?max_states ?max_tuples ())
    $ fuel_arg $ deadline_arg $ max_states_arg $ max_tuples_arg)

let table_default = function Some f -> f | None -> `Table

let eval_term =
  Term.(
    const (fun formula doc file contents limits offset limit format ->
        catch (fun () ->
            eval_cmd formula doc file contents limits offset limit (table_default format)))
    $ formula_arg $ doc_arg $ file_arg $ contents_arg $ limits_term
    $ offset_arg $ limit_arg $ format_arg)

let engine_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("auto", `Auto);
             ("compiled", `Compiled);
             ("compressed", `Compressed);
             ("decompress", `Decompress);
           ])
        `Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Evaluation engine: $(b,auto) lets the planner choose from the input shape \
           (default; see the $(b,explain) subcommand); $(b,compiled) reads the files as-is; \
           $(b,compressed) builds a shared SLP database and evaluates in the compressed \
           domain (§4.2); $(b,decompress) builds the same database but decompresses before \
           evaluating (the baseline the compressed engine is measured against).")

let store_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "store" ] ~docv:"PATH"
        ~doc:
          "Evaluate over the packed corpus at $(docv) — a $(b,pack)-built arena or shard \
           manifest, mapped zero-copy; multi-shard corpora evaluate shard-parallel.")

let batch_term =
  Term.(
    const (fun formula store files jobs engine limits offset limit format ->
        catch (fun () ->
            batch_cmd formula store files jobs engine limits offset limit
              (table_default format)))
    $ formula_arg $ store_arg $ files_arg $ jobs_arg $ engine_arg $ limits_term $ offset_arg
    $ limit_arg $ format_arg)

let pack_files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Document files to pack.")

let pack_db_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "db" ] ~docv:"PATH" ~doc:"Pack the documents of the SLPDB database at $(docv).")

let pack_shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Split the corpus round-robin into $(docv) arena files behind a manifest \
           (default: one arena, no manifest).")

let pack_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"PATH" ~doc:"Write the arena (or manifest) to $(docv).")

let pack_term =
  Term.(
    const (fun files dbfile shards out -> catch (fun () -> pack_cmd files dbfile shards out))
    $ pack_files_arg $ pack_db_arg $ pack_shards_arg $ pack_out_arg)

let enum_term =
  Term.(
    const (fun formula doc file limit -> catch (fun () -> enum_cmd formula doc file limit))
    $ formula_arg $ doc_arg $ file_arg $ limit_arg)

let refl_term =
  Term.(
    const (fun formula doc file contents -> catch (fun () -> refl_cmd formula doc file contents))
    $ formula_arg $ doc_arg $ file_arg $ contents_arg)

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the compiled automaton as Graphviz DOT and exit.")

let program_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM" ~doc:"Datalog program file.")

let doc_arg2 =
  Arg.(value & pos 1 (some string) None & info [] ~docv:"DOC" ~doc:"Document (inline).")

let query_arg =
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"PRED" ~doc:"Print the facts of predicate $(docv).")

let datalog_term =
  Term.(
    const (fun program doc file query -> catch (fun () -> datalog_cmd program doc file query))
    $ program_arg $ doc_arg2 $ file_arg $ query_arg)

let analyze_term =
  Term.(
    const (fun formula dot -> catch (fun () -> analyze_cmd formula dot))
    $ formula_arg $ dot_arg)

let output_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Also save the compressed database (SLPDB format) to $(docv).")

let compress_term =
  Term.(
    const (fun doc file output -> catch (fun () -> compress_cmd doc file output))
    $ doc_only_arg $ file_arg $ output_arg)

let slpeval_term =
  Term.(
    const (fun formula doc file limit limits ->
        catch (fun () -> slpeval_cmd formula doc file limit limits))
    $ formula_arg $ doc_arg $ file_arg $ limit_arg $ limits_term)

let exprs_arg =
  Arg.(
    value & pos_right 1 string []
    & info [] ~docv:"EXPR"
        ~doc:
          "CDE-expressions applied in order; each re-designates document $(b,doc). Syntax: \
           concat(e, e), extract(e, i, j), delete(e, i, j), insert(e, e, k), copy(e, i, j, k) \
           over document names.")

let capacity_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "capacity" ] ~docv:"N" ~doc:"Cache at most $(docv) per-node summaries (LRU).")

let show_arg =
  Arg.(value & flag & info [ "show" ] ~doc:"Print the relation after the last edit.")

let edit_term =
  Term.(
    const (fun formula doc file exprs capacity show limits offset limit format ->
        catch (fun () ->
            edit_cmd formula doc file exprs capacity show limits offset limit format))
    $ formula_arg $ doc_arg $ file_arg $ exprs_arg $ capacity_arg $ show_arg $ limits_term
    $ offset_arg $ limit_arg $ format_arg)

let slp_shape_arg =
  Arg.(
    value & flag
    & info [ "slp" ] ~doc:"Plan over the SLP-compressed form of the document (§4.2).")

let session_shape_arg =
  Arg.(
    value & flag
    & info [ "session" ] ~doc:"Plan over a live CDE session holding the document (§4.3).")

let db_shape_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "db" ] ~docv:"FILE"
        ~doc:"Plan over a frozen document database ($(docv) in SLPDB format, see compress -o).")

let algebra_flag =
  Arg.(
    value & flag
    & info [ "algebra" ]
        ~doc:
          "Treat FORMULA as an algebra expression and print the optimizer's rewritten costed \
           plan tree — per-node state estimates and each fuse-vs-materialise decision — \
           instead of the input-shape plan.")

let fuse_states_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuse-states" ] ~docv:"N"
        ~doc:
          "Fuse budget: compose a Select-free subtree into one automaton only while its \
           estimated product stays within $(docv) states, falling back to materialised \
           evaluation above it (default: 4096, capped by --max-states).")

let store_shape_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "store" ] ~docv:"PATH"
        ~doc:"Plan over the packed arena corpus (or shard manifest) at $(docv).")

let explain_term =
  Term.(
    const (fun formula doc file slp session dbfile storefile algebra fuse_states limits ->
        catch (fun () ->
            explain_cmd formula doc file slp session dbfile storefile algebra fuse_states
              limits))
    $ formula_arg $ doc_arg $ file_arg $ slp_shape_arg $ session_shape_arg $ db_shape_arg
    $ store_shape_arg $ algebra_flag $ fuse_states_arg $ limits_term)

let expr_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EXPR"
        ~doc:
          "Algebra expression over spanner formulas: $(b,rgx:\"...\") and $(b,file:\"...\") \
           leaves combined with $(b,|) (union), $(b,&) (join), $(b,pi[x,y](e)) (projection) \
           and $(b,sel[x,y](e)) (string-equality selection); $(b,&) binds tighter than \
           $(b,|), parentheses group.")

let qfiles_arg =
  Arg.(
    value
    & opt_all file []
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:"Read a document from $(docv); repeat for a batch (compile once, run per file).")

let query_term =
  Term.(
    const (fun expr doc files jobs fuse_states contents limits offset limit format ->
        catch (fun () ->
            query_cmd expr doc files jobs fuse_states contents limits offset limit
              (table_default format)))
    $ expr_arg $ doc_arg $ qfiles_arg $ jobs_arg $ fuse_states_arg $ contents_arg
    $ limits_term $ offset_arg $ limit_arg $ format_arg)

(* ------------------------------------------------------------------ *)
(* serve / client *)

module Server = Spanner_serve.Server
module Serve_client = Spanner_serve.Client

let serve_cmd address jobs queue plan_cache doc_cache window max_frame fuse_states limits
    io_timeout_ms idle_timeout_ms drain_ms =
  List.iter
    (fun (flag, n) -> at_least_one flag n)
    [
      ("queue", queue);
      ("plan-cache", plan_cache);
      ("doc-cache", doc_cache);
      ("window", window);
      ("max-frame", max_frame);
    ];
  let address = Server.address_of_string address in
  let config =
    {
      (Server.default_config address) with
      Server.workers = Option.map (max 1) jobs;
      queue;
      plan_cache;
      doc_cache;
      window;
      max_frame;
      fuse_states;
      defaults = limits;
      io_timeout_ms;
      idle_timeout_ms;
      drain_ms;
    }
  in
  let t = Server.start config in
  Printf.eprintf "listening on %s\n%!" (Server.address_to_string address);
  (* the handler must not call Server.stop directly: it takes the
     server mutex, and OCaml signal handlers run at safe points on a
     running thread — if the signal lands inside a locked section the
     error-checking mutex raises from the handler.  So the handler
     only flips an atomic; a watcher thread performs the stop.  (The
     watcher lingers after a SHUTDOWN-verb stop; process exit after
     [wait] reaps it.) *)
  let stop_requested = Atomic.make false in
  let stop_on_signal _ = Atomic.set stop_requested true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal) with _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal) with _ -> ());
  let _watcher =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_requested) do
          Thread.delay 0.05
        done;
        Server.stop t)
      ()
  in
  Server.wait t

let client_cmd address words body body_file retry_ms backoff_ms =
  if words = [] then raise (Usage "client: expected a protocol command, e.g. STATS");
  let address = Server.address_of_string address in
  let body =
    match (body, body_file) with
    | Some _, Some _ -> raise (Usage "client: --body and --body-file are exclusive")
    | Some b, None -> Some b
    | None, Some f -> Some (In_channel.with_open_bin f In_channel.input_all)
    | None, None -> None
  in
  let payload =
    String.concat " " words ^ match body with Some b -> "\n" ^ b | None -> ""
  in
  (* the server may still be coming up (cram starts it in the
     background): retry the connect within the deadline *)
  let deadline = Unix.gettimeofday () +. (float_of_int retry_ms /. 1000.) in
  let rec connect () =
    try Serve_client.connect address
    with Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _) as e ->
      if Unix.gettimeofday () >= deadline then raise e
      else begin
        Unix.sleepf 0.02;
        connect ()
      end
  in
  let conn = connect () in
  let frames =
    Fun.protect ~finally:(fun () -> Serve_client.close conn) (fun () ->
        Serve_client.request ~backoff_ms conn payload)
  in
  List.iter print_endline frames;
  match List.filter_map Serve_client.err_code frames with
  | [] -> ()
  | codes -> exit (List.nth codes (List.length codes - 1))

let address_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ADDR"
        ~doc:
          "Server address: $(b,unix:PATH) (or a bare socket path) or $(b,tcp:HOST:PORT).")

let serve_jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains executing queries (default: all cores minus one; $(docv) < 1 \
           counts as 1).")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission-queue capacity: queries beyond $(docv) waiting are shed with the \
           over-budget status instead of queueing without bound.")

let plan_cache_arg =
  Arg.(
    value & opt int 128
    & info [ "plan-cache" ] ~docv:"N"
        ~doc:"Compiled-plan LRU capacity, in queries (keyed by normalized algebra text).")

let doc_cache_arg =
  Arg.(
    value & opt int 128
    & info [ "doc-cache" ] ~docv:"N"
        ~doc:"Decompressed-document LRU capacity, in documents.")

let window_arg =
  Arg.(
    value & opt int 64
    & info [ "window" ] ~docv:"K"
        ~doc:"Stream at most $(docv) tuples per response frame (backpressure granularity).")

let max_frame_arg =
  Arg.(
    value
    & opt int Spanner_serve.Protocol.default_max_frame
    & info [ "max-frame" ] ~docv:"BYTES"
        ~doc:"Reject request frames larger than $(docv) bytes (default 4 MiB).")

let io_timeout_arg =
  Arg.(
    value & opt int 0
    & info [ "io-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Cut a connection whose request frame stalls mid-read or whose response write \
           stalls for $(docv) ms (slowloris defense; 0 disables).")

let idle_timeout_arg =
  Arg.(
    value & opt int 0
    & info [ "idle-timeout-ms" ] ~docv:"MS"
        ~doc:"Reap a connection that sends no request for $(docv) ms (0 disables).")

let drain_ms_arg =
  Arg.(
    value & opt int 1000
    & info [ "drain-ms" ] ~docv:"MS"
        ~doc:
          "On SHUTDOWN or SIGTERM, let in-flight requests finish for up to $(docv) ms \
           before force-closing their connections (0 forces immediately).")

let serve_term =
  Term.(
    const
      (fun address jobs queue plan_cache doc_cache window max_frame fuse_states limits
           io_timeout_ms idle_timeout_ms drain_ms ->
        catch (fun () ->
            serve_cmd address jobs queue plan_cache doc_cache window max_frame fuse_states
              limits io_timeout_ms idle_timeout_ms drain_ms))
    $ address_arg $ serve_jobs_arg $ queue_arg $ plan_cache_arg $ doc_cache_arg
    $ window_arg $ max_frame_arg $ fuse_states_arg $ limits_term $ io_timeout_arg
    $ idle_timeout_arg $ drain_ms_arg)

let words_arg =
  Arg.(
    value & pos_right 0 string []
    & info [] ~docv:"WORD"
        ~doc:
          "Protocol command words, e.g. $(b,DEFINE name), $(b,LOAD store DOC doc), \
           $(b,QUERY name store doc limit=10), $(b,STATS), $(b,SHUTDOWN).")

let body_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "body" ] ~docv:"TEXT" ~doc:"Request body (the text after the command line).")

let body_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "body-file" ] ~docv:"FILE" ~doc:"Read the request body from $(docv).")

let retry_ms_arg =
  Arg.(
    value & opt int 0
    & info [ "retry-ms" ] ~docv:"MS"
        ~doc:"Keep retrying a refused connection for up to $(docv) ms (a just-started server).")

let backoff_arg =
  Arg.(
    value & opt int 0
    & info [ "backoff" ] ~docv:"MS"
        ~doc:
          "Retry idempotent requests (QUERY, EXPLAIN, STATS) on transport failures with \
           exponential backoff starting at $(docv) ms plus jitter (0 disables).")

let client_term =
  Term.(
    const (fun address words body body_file retry_ms backoff_ms ->
        catch (fun () ->
            try client_cmd address words body body_file retry_ms backoff_ms
            with Unix.Unix_error (e, _, _) ->
              Printf.eprintf "error: cannot reach server: %s\n" (Unix.error_message e);
              Stdlib.exit 1))
    $ address_arg $ words_arg $ body_arg $ body_file_arg $ retry_ms_arg $ backoff_arg)

let cmds =
  [
    Cmd.v (Cmd.info "eval" ~doc:"Evaluate a regex-formula spanner on a document.") eval_term;
    Cmd.v
      (Cmd.info "batch"
         ~doc:
           "Evaluate one spanner on many document files: compile once, run the \
            linear-time document pass per file, in parallel across domains.")
      batch_term;
    Cmd.v
      (Cmd.info "pack"
         ~doc:
           "Pack documents (or an SLPDB database) into frozen arena files: the SLP laid out \
            as flat columns that map back in O(1) with zero deserialization; --shards \
            splits the corpus behind a manifest for shard-parallel evaluation.")
      pack_term;
    Cmd.v (Cmd.info "enum" ~doc:"Enumerate result tuples with the two-phase algorithm (§2.5).")
      enum_term;
    Cmd.v (Cmd.info "refl" ~doc:"Evaluate a refl-spanner (&x references, §3).") refl_term;
    Cmd.v
      (Cmd.info "datalog" ~doc:"Run a datalog-over-spanners program on a document (RGXLog).")
      datalog_term;
    Cmd.v (Cmd.info "analyze" ~doc:"Static analysis of a spanner (§2.4).") analyze_term;
    Cmd.v (Cmd.info "compress" ~doc:"Compress a document into a balanced SLP (§4.1).")
      compress_term;
    Cmd.v
      (Cmd.info "slpeval" ~doc:"Evaluate a spanner over the SLP-compressed document (§4.2).")
      slpeval_term;
    Cmd.v
      (Cmd.info "edit"
         ~doc:
           "Apply complex document edits and re-evaluate incrementally: per-node transition \
            summaries are cached, so each edit recomputes only the nodes it created (§4.3).")
      edit_term;
    Cmd.v
      (Cmd.info "query"
         ~doc:
           "Evaluate an algebra expression (unions, joins, projections, selections over \
            spanner formulas) through the cost-based optimizer: Select-free subtrees fuse \
            into single automata under a state budget, joins reorder by sampled \
            cardinality, and results stream without intermediate relations.")
      query_term;
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Print the evaluation plan the planner would pick for a query — chosen engine, \
            the input-shape facts it decided from, and why — without running it.")
      explain_term;
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Run the persistent query service: named spanners and frozen document stores \
            shared across connections, a compiled-plan cache keyed by normalized query \
            text, worker domains behind a bounded admission queue that sheds under \
            overload, and streamed responses with windowed backpressure.")
      serve_term;
    Cmd.v
      (Cmd.info "client"
         ~doc:
           "Send one request to a running spanner service and print the response frames; \
            the exit code follows the server's ERR status (the usual taxonomy).")
      client_term;
  ]

let () =
  let info =
    Cmd.info "spanner-cli" ~version:"1.0.0"
      ~doc:"Document spanners: evaluation, enumeration, refl-spanners, SLP-compressed documents."
  in
  exit (Cmd.eval (Cmd.group info cmds))
