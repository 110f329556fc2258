(* batch-packed: extraction jobs over a mapped multi-shard corpus.

   Set-up compresses the documents, packs them with Corpus.pack into
   two or more shards behind a manifest, and maps the manifest with
   Corpus.open_path.  Each op is one extraction job over the whole
   corpus: Compiled.of_formula, Plan.make and Plan.relations on one
   domain, with a fresh plan per job so nothing is cached across jobs.
   The matrix sweep over mapped columns, Plan's two waves and the full
   drains do the work; no serve layer runs. *)

open Common
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Slp_spanner = Spanner_slp.Slp_spanner
module Arena = Spanner_store.Arena
module Corpus = Spanner_store.Corpus
module Plan = Spanner_engine.Plan
module Cursor = Spanner_engine.Cursor
module Limits = Spanner_util.Limits
open Spanner_core

type size = {
  logs : int;
  log_lines : int;
  archives : int;
  chunk_lines : int;
  doublings : int;
  shards : int;
  pass_rss : int;  (* jobs before peak RSS is read *)
  trace_jobs : int;
}

let full =
  {
    logs = 6;
    log_lines = 9;
    archives = 2;
    chunk_lines = 9;
    doublings = 6;
    shards = 2;
    pass_rss = 30;
    trace_jobs = 24;
  }

let tiny =
  { logs = 2; log_lines = 9; archives = 1; chunk_lines = 5; doublings = 3; shards = 2; pass_rss = 3; trace_jobs = 3 }

type doc = { name : string; text : string; chunk : (string * int) option  (* archive: chunk, doublings *) }

type inputs = { docs : doc array }

let generate ~size ~seed =
  let r = Gen.rng ~seed ~salt:2 in
  let logs =
    Array.init size.logs (fun i ->
        { name = Printf.sprintf "log%02d" i; text = Gen.log_doc r ~lines:size.log_lines; chunk = None })
  in
  let archives =
    Array.init size.archives (fun i ->
        let chunk = Gen.archive_chunk r ~lines:size.chunk_lines in
        let b = Buffer.create (String.length chunk lsl size.doublings) in
        for _ = 1 to 1 lsl size.doublings do
          Buffer.add_string b chunk
        done;
        { name = Printf.sprintf "archive%02d" i; text = Buffer.contents b; chunk = Some (chunk, size.doublings) })
  in
  { docs = Array.append logs archives }

let inputs_digest inp =
  Digest.to_hex
    (Digest.string (String.concat "\n" (Array.to_list (Array.map (fun d -> d.name ^ "\n" ^ d.text) inp.docs))))

(* Set-up, from nothing to ready: compress every document (archives
   as a chunk doubled by CDE concatenation), pack, map.  Returns the
   corpus and the stage times. *)
let setup ~size ~work inp =
  let t0 = now () in
  let db = Doc_db.create () in
  Array.iter
    (fun d ->
      match d.chunk with
      | None -> ignore (Doc_db.add_string db d.name d.text)
      | Some (chunk, k) ->
          ignore (Doc_db.add_string db d.name chunk);
          for _ = 1 to k do
            ignore (Cde.materialize db d.name (Cde.Concat (Cde.Doc d.name, Cde.Doc d.name)))
          done)
    inp.docs;
  let t1 = now () in
  let path = Filename.concat work "corpus.slpmf" in
  ignore (Corpus.pack db ~shards:size.shards path);
  let t2 = now () in
  let corpus = Corpus.open_path path in
  let t3 = now () in
  (corpus, t3 -. t0, (t1 -. t0, t2 -. t1, t3 -. t2))

(* ------------------------------------------------------------------ *)
(* Jobs and their oracle *)

let extractor k = Gen.extractors.(k mod Array.length Gen.extractors)

(* The production path: one fresh compile, plan and Pool run per job. *)
let job corpus k =
  let _, f = extractor k in
  let ct = Compiled.of_formula (Regex_formula.parse f) in
  let p = Plan.make ct (Plan.Packed corpus) in
  Plan.relations ~jobs:1 p

type answers = (string * (Span_relation.t, exn) Stdlib.result) array

let same_result (a : answers) (b : answers) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (n1, r1) (n2, r2) ->
         n1 = n2 && match (r1, r2) with Ok x, Ok y -> Span_relation.equal x y | _ -> false)
       a b

(* Exact check of one job's relations against Compiled.eval on every
   document's plain text. *)
let matches_oracle inp k (res : answers) =
  let _, f = extractor k in
  let ct = oracle_compile f in
  Array.length res = Array.length inp.docs
  && Array.for_all
       (fun d ->
         match List.assoc_opt d.name (Array.to_list res) with
         | Some (Ok rel) -> canon_relation rel = canon_relation (Compiled.eval ct d.text)
         | _ -> false)
       inp.docs

(* ------------------------------------------------------------------ *)
(* Modes *)

let setup_only ~size ~work inp =
  let _, setup_s, _ = setup ~size ~work inp in
  setup_s

(* The measured phase: jobs until [seconds] have passed or [max_jobs]
   have run. *)
let run ?(max_jobs = max_int) ~size ~work ~seconds inp =
  let corpus, setup_s, _ = setup ~size ~work inp in
  let nx = Array.length Gen.extractors in
  let firsts = Array.make nx None in
  let lats = ref [] and classes = ref [] and cpu = ref 0. and check_t = ref 0. in
  let attempted = ref 0 and errors = ref 0 and mismatched = ref 0 in
  let hwm = ref nan in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let k = ref 0 in
  while now () < deadline && !k < max_jobs do
    let c0 = self_cpu_s () and t0 = now () in
    let res = try Some (job corpus !k) with _ -> None in
    let t1 = now () and c1 = self_cpu_s () in
    incr attempted;
    cpu := !cpu +. (c1 -. c0);
    (* off the clock: compare with the first answer of this extractor
       (checked against the oracle after the phase) *)
    (match res with
    | Some r when Array.for_all (fun (_, x) -> Result.is_ok x) r -> (
        lats := (t1 -. t0) :: !lats;
        classes := (fst (extractor !k), t1 -. t0) :: !classes;
        match firsts.(!k mod nx) with
        | None -> firsts.(!k mod nx) <- Some r
        | Some f -> if not (same_result f r) then incr mismatched)
    | _ ->
        incr errors;
        lats := infinity :: !lats);
    incr k;
    if !k = size.pass_rss then hwm := vm_hwm_mb "self";
    check_t := !check_t +. (now () -. t1)
  done;
  let wall = now () -. t_start -. !check_t in
  if Float.is_nan !hwm then hwm := vm_hwm_mb "self";
  let wrong =
    !mismatched
    + Array.fold_left
        (fun acc (i, f) ->
          match f with Some r when not (matches_oracle inp i r) -> acc + 1 | _ -> acc)
        0
        (Array.mapi (fun i f -> (i, f)) firsts)
  in
  let completed = !attempted - !errors in
  let lat = sorted_of_list !lats in
  let metrics =
    [
      ("setup_s", metric "s" setup_s);
      ("throughput_ops_s", metric "ops/s" (float_of_int completed /. wall));
      ("latency_p50_ms", metric "ms" (percentile lat 0.5 *. 1000.));
      ("latency_p90_ms", metric "ms" (percentile lat 0.9 *. 1000.));
      ("peak_rss_mb", metric "MB" !hwm);
      ("cpu_ms_per_op", metric "ms" (!cpu *. 1000. /. float_of_int (max 1 completed)));
    ]
  in
  (!attempted, !errors + wrong, wrong = 0, metrics, ("shards", Int (Corpus.shard_count corpus)) :: (class_facts !classes @ class_summary !classes))

(* ------------------------------------------------------------------ *)
(* Traced run *)

type decomposed = { rels : answers; matrices : int; tuples : int; pulls : int }

(* Plan.relations rebuilt from public calls on one domain: wave 1
   sweeps each shard's documents on an engine over its mapped columns,
   wave 2 drains every document's cursor. *)
let decomposed corpus k ~op =
  let _, f = extractor k in
  let root = open_span ~parent:(-1) ~op "op" in
  let ct =
    with_span ~parent:root ~op "compiled.compile" (fun _ -> Compiled.of_formula (Regex_formula.parse f))
  in
  let p = with_span ~parent:root ~op "plan.make" (fun _ -> Plan.make ct (Plan.Packed corpus)) in
  if Plan.choice p <> `Compressed then fail "batch-packed: the planner did not choose the compressed sweep";
  let docs = Corpus.docs corpus in
  let engines =
    Array.mapi
      (fun si a ->
        with_span ~parent:root ~op "slp_spanner.sweep" (fun _ ->
            let engine = Slp_spanner.of_frozen ct (Arena.frozen_view a) in
            let g = Limits.start Limits.none in
            Array.iter (fun (_, sj, r) -> if sj = si then Slp_spanner.prepare_gauge g engine r) docs;
            engine))
      (Corpus.shards corpus)
  in
  let tuples = ref 0 and pulls = ref 0 in
  let rels =
    Array.map
      (fun (name, si, r) ->
        with_span ~parent:root ~op "cursor.drain" (fun _ ->
            let c = Cursor.of_slp ~gauge:(Limits.start Limits.none) engines.(si) r in
            let rel = Cursor.to_relation c in
            tuples := !tuples + Span_relation.cardinal rel;
            pulls := !pulls + Cursor.pulls c;
            (name, Ok rel)))
      docs
  in
  close_span root;
  { rels; matrices = Array.fold_left (fun a e -> a + Slp_spanner.matrices_computed e) 0 engines; tuples = !tuples; pulls = !pulls }

let trace ~size ~work inp =
  let corpus, _, (compress_t, pack_t, open_t) = setup ~size ~work inp in
  let n = size.trace_jobs in
  let wrong = ref 0 in
  let check k r = if not (matches_oracle inp k r) then incr wrong in
  (* Each job runs three ways, interleaved so they share heap and host
     state: the production path through Plan.relations (untraced), then
     the decomposition untraced, then traced. *)
  let gc_acc = ref (0., 0., 0.) in
  let rel_t = ref 0. and make_compile_t = ref 0. and t_untraced = ref 0. and t_traced = ref 0. in
  reset_spans ();
  let parts =
    List.init n (fun k ->
        let (m0, p0, c0) = gc_counts () in
        let t0 = now () in
        let _, f = extractor k in
        let ct = Compiled.of_formula (Regex_formula.parse f) in
        let p = Plan.make ct (Plan.Packed corpus) in
        let t1 = now () in
        let r = Plan.relations ~jobs:1 p in
        let t2 = now () in
        let (m1, p1, c1) = gc_counts () in
        let (am, ap, ac) = !gc_acc in
        gc_acc := (am +. (m1 -. m0), ap +. (p1 -. p0), ac +. (c1 -. c0));
        make_compile_t := !make_compile_t +. (t1 -. t0);
        rel_t := !rel_t +. (t2 -. t1);
        check k r;
        let t0 = now () in
        let d = decomposed corpus k ~op:k in
        t_untraced := !t_untraced +. (now () -. t0);
        check k d.rels;
        tracer.enabled <- true;
        let t0 = now () in
        let d = decomposed corpus k ~op:k in
        t_traced := !t_traced +. (now () -. t0);
        tracer.enabled <- false;
        check k d.rels;
        d)
  in
  let spans = summarise_spans () in
  let total name = (span_get spans name).total in
  let jobs = float_of_int n in
  let sum f = float_of_int (List.fold_left (fun a d -> a + f d) 0 parts) in
  (* bytes actually compressed: archives compress their chunk only *)
  let text_mb =
    float_of_int
      (Array.fold_left
         (fun a d -> a + match d.chunk with Some (c, _) -> String.length c | None -> String.length d.text)
         0 inp.docs)
    /. 1048576.
  in
  let stages = total "compiled.compile" +. total "plan.make" +. total "slp_spanner.sweep" +. total "cursor.drain" in
  let metrics =
    [
      ("compiled.compile_ms", metric "ms" (total "compiled.compile" /. jobs *. 1000.));
      ("plan.make_us", metric "us" (total "plan.make" /. jobs *. 1e6));
      ("plan.relations_ms", metric "ms" (!rel_t /. jobs *. 1000.));
      ("plan.stage_sum_ratio", metric "ratio" (stages /. (!rel_t +. !make_compile_t)));
      ("pool.busy_share", metric "ratio" ((total "slp_spanner.sweep" +. total "cursor.drain") /. !rel_t));
      ("slp_spanner.sweep_ms", metric "ms" (total "slp_spanner.sweep" /. jobs *. 1000.));
      ("slp_spanner.matrices_per_job", metric "count" (sum (fun d -> d.matrices) /. jobs));
      ("slp_spanner.ns_per_matrix", metric "ns" (ratio (total "slp_spanner.sweep") (sum (fun d -> d.matrices)) *. 1e9));
      ("cursor.drain_ns_per_tuple", metric "ns" (ratio (total "cursor.drain") (sum (fun d -> d.tuples)) *. 1e9));
      ("cursor.tuples_per_job", metric "count" (sum (fun d -> d.tuples) /. jobs));
      ("cursor.pulls_per_op", metric "count" (sum (fun d -> d.pulls) /. jobs));
      ("store.pack_ms", metric "ms" (pack_t *. 1000.));
      ("store.open_us", metric "us" (open_t *. 1e6));
      ("store.resident_mb", metric "MB" (float_of_int (Corpus.resident_bytes corpus) /. 1048576.));
      ("doc_db.compress_ms_per_mb", metric "ms/MB" (compress_t *. 1000. /. text_mb));
      ("trace.overhead_frac", metric "ratio" ((!t_traced /. !t_untraced) -. 1.));
    ]
    @ gc_metrics ~ops:n (0., 0., 0.) !gc_acc
  in
  (3 * n, !wrong, !wrong = 0, metrics, ("shards", Int (Corpus.shard_count corpus)) :: span_facts spans)
