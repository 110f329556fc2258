(* edit-session: one Incr session over a Doc_db of log documents,
   driven by a seeded stream of CDE edits and reads.

   Edits insert a factor of another document, delete a range, or copy
   a range within the document; Incr.edit re-evaluates each one.
   Reads of documents no edit touches run beside them through
   Plan.make/Plan.cursor on a Plan.Session input.  It is the only
   workload that writes: new SLP nodes, rebalancing, and summary-cache
   inserts and evictions happen in Cde, Balance, Incr and Lru.

   Edits go to small documents and reads to larger ones, so the two
   classes sit apart: the median op is an edit, the 90th percentile a
   read.  The store sits below the session's 65,536-entry summary LRU:
   every live node's summary fits, so evictions only begin once edits
   have created enough new nodes, and then fall mostly on dead
   versions. *)

open Common
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Plan = Spanner_engine.Plan
module Cursor = Spanner_engine.Cursor
module Incr = Spanner_incr.Incr
open Spanner_core

type size = {
  docs : int;
  edited : int;  (* documents 0 .. edited-1 take the edits *)
  edited_lines : int;
  read_lines : int;
  read_share : int;  (* percent of ops that are reads *)
  ops : int;  (* length of the generated op stream *)
  pass_rss : int;  (* ops before peak RSS is read *)
  trace_skip : int;  (* traced run: ops replayed before the measured window *)
  trace_ops : int;
}

let full =
  {
    docs = 16;
    edited = 8;
    edited_lines = 24;
    read_lines = 72;
    read_share = 30;
    ops = 100_000;
    pass_rss = 1000;
    trace_skip = 3000;
    trace_ops = 1500;
  }

let tiny =
  { docs = 4; edited = 2; edited_lines = 20; read_lines = 20; read_share = 50; ops = 400; pass_rss = 50; trace_skip = 20; trace_ops = 60 }

(* The session's spanner. *)
let formula = snd Gen.extractors.(0)

type inputs = { names : string array; texts : string array; ops : Gen.op array }

let generate ~size ~seed =
  let r = Gen.rng ~seed ~salt:3 in
  let texts =
    Array.init size.docs (fun i ->
        Gen.log_doc r ~lines:(if i < size.edited then size.edited_lines else size.read_lines))
  in
  let lens = Array.map String.length texts in
  let ops = Gen.edit_ops r ~lens ~edited:size.edited ~n:size.ops ~read_share:size.read_share in
  { names = Array.init size.docs (Printf.sprintf "doc%02d"); texts; ops }

let op_to_string = function
  | Gen.Read d -> Printf.sprintf "read %d" d
  | Gen.Insert { doc; src; i; j; k } -> Printf.sprintf "insert %d %d %d %d %d" doc src i j k
  | Gen.Copy { doc; i; j; k } -> Printf.sprintf "copy %d %d %d %d" doc i j k
  | Gen.Delete { doc; i; j } -> Printf.sprintf "delete %d %d %d" doc i j

let op_kind = function
  | Gen.Read _ -> "read"
  | Gen.Insert _ -> "insert"
  | Gen.Copy _ -> "copy"
  | Gen.Delete _ -> "delete"

let inputs_digest inp =
  let b = Buffer.create 65536 in
  Array.iter (fun t -> Buffer.add_string b (t ^ "\n")) inp.texts;
  Array.iter (fun o -> Buffer.add_string b (op_to_string o ^ "\n")) inp.ops;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cde_of inp = function
  | Gen.Read _ -> invalid_arg "cde_of"
  | Gen.Insert { doc; src; i; j; k } ->
      (doc, Cde.Insert (Cde.Doc inp.names.(doc), Cde.Extract (Cde.Doc inp.names.(src), i, j), k))
  | Gen.Copy { doc; i; j; k } -> (doc, Cde.Copy (Cde.Doc inp.names.(doc), i, j, k))
  | Gen.Delete { doc; i; j } -> (doc, Cde.Delete (Cde.Doc inp.names.(doc), i, j))

type session = { ct : Compiled.t; s : Incr.session; db : Doc_db.t }

let read sess name = Cursor.to_relation (Plan.cursor (Plan.make sess.ct (Plan.Session (sess.s, name))))

(* Set-up, from nothing to ready: compress, Incr.create, one cold read
   of every document. *)
let setup inp =
  let t0 = now () in
  let db = Doc_db.create () in
  Array.iteri (fun i t -> ignore (Doc_db.add_string db inp.names.(i) t)) inp.texts;
  let t1 = now () in
  let ct = Compiled.of_formula (Regex_formula.parse formula) in
  let sess = { ct; s = Incr.create ct db; db } in
  Array.iter (fun n -> ignore (read sess n)) inp.names;
  (sess, now () -. t0, t1 -. t0)

(* The op through the production entry points. *)
let run_op sess inp op =
  match op with
  | Gen.Read d -> read sess inp.names.(d)
  | _ ->
      let doc, e = cde_of inp op in
      snd (Incr.edit sess.s inp.names.(doc) e)

(* Expected digests of the first [n] ops: the plain-text mirror of
   every edit (written independently of Cde) evaluated by
   Compiled.eval.  The mirror is replayed in order; the evaluations,
   which only read the compiled tables, are split over two domains.
   Reads go to documents no edit changes, so their texts repeat: each
   domain evaluates a read's text once and reuses its digest. *)
let expected inp n =
  let ct = oracle_compile formula in
  let texts = Array.copy inp.texts in
  let targets =
    Array.init n (fun i ->
        match inp.ops.(i) with
        | Gen.Read d -> texts.(d)
        | op ->
            Gen.apply_edit texts op;
            texts.(fst (cde_of inp op)))
  in
  let digester () =
    let reads = Hashtbl.create 16 in
    fun i ->
      let text = targets.(i) in
      let eval () = digest_relation (Compiled.eval ct text) in
      match inp.ops.(i) with
      | Gen.Read _ -> (
          match Hashtbl.find_opt reads text with
          | Some d -> d
          | None ->
              let d = eval () in
              Hashtbl.add reads text d;
              d)
      | _ -> eval ()
  in
  let half = n / 2 in
  let other =
    Domain.spawn (fun () ->
        let digest = digester () in
        Array.init (n - half) (fun i -> digest (half + i)))
  in
  let first = Array.init half (digester ()) in
  Array.append first (Domain.join other)

let count_wrong expected digests =
  let wrong = ref 0 in
  Array.iteri (fun i d -> if d <> expected.(i) then incr wrong) digests;
  !wrong

(* ------------------------------------------------------------------ *)
(* Modes *)

let setup_only inp =
  let _, setup_s, _ = setup inp in
  setup_s

let run ~size ~seconds inp =
  let sess, setup_s, _ = setup inp in
  let digests = Array.make (Array.length inp.ops) "" in
  let lats = ref [] and classes = ref [] and cpu = ref 0. and check_t = ref 0. in
  let errors = ref 0 and hwm = ref nan in
  let t_start = now () in
  let deadline = t_start +. seconds in
  let i = ref 0 in
  while now () < deadline && !i < Array.length inp.ops do
    let c0 = self_cpu_s () and t0 = now () in
    let res = try Some (run_op sess inp inp.ops.(!i)) with _ -> None in
    let t1 = now () and c1 = self_cpu_s () in
    cpu := !cpu +. (c1 -. c0);
    (match res with
    | Some rel ->
        lats := (t1 -. t0) :: !lats;
        classes := (op_kind inp.ops.(!i), t1 -. t0) :: !classes;
        digests.(!i) <- digest_relation rel
    | None ->
        incr errors;
        lats := infinity :: !lats);
    incr i;
    if !i = size.pass_rss then hwm := vm_hwm_mb "self";
    check_t := !check_t +. (now () -. t1)
  done;
  let wall = now () -. t_start -. !check_t in
  if Float.is_nan !hwm then hwm := vm_hwm_mb "self";
  let attempted = !i in
  let exp = expected inp attempted in
  let wrong =
    count_wrong exp (Array.sub digests 0 attempted) - !errors (* failed ops are counted once *)
  in
  let completed = attempted - !errors in
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
  let st = Incr.stats sess.s in
  let facts =
    [
      ("ops_exhausted", Bool (attempted = Array.length inp.ops));
      ("incr.entries", Int st.Incr.entries);
      ("incr.evictions", Int st.Incr.evictions);
      ("incr.nodes_created", Int st.Incr.nodes_created);
    ]
    @ class_facts !classes @ class_summary !classes
  in
  (attempted, !errors + wrong, wrong = 0, metrics, facts)

(* ------------------------------------------------------------------ *)
(* Traced run *)

(* Incr.edit rebuilt from public calls: Cde.materialize, then the
   re-evaluation through Plan on the session. *)
let decomposed_op sess inp ~op ~pulls ~tuples o =
  let root = open_span ~parent:(-1) ~op "op" in
  (* the evaluation through Plan, its stages as child spans *)
  let eval span name =
    with_span ~parent:root ~op span (fun parent ->
        let p = with_span ~parent ~op "plan.make" (fun _ -> Plan.make sess.ct (Plan.Session (sess.s, name))) in
        let c = with_span ~parent ~op "plan.cursor" (fun _ -> Plan.cursor p) in
        let rel = with_span ~parent ~op "cursor.drain" (fun _ -> Cursor.to_relation c) in
        pulls := !pulls + Cursor.pulls c;
        tuples := !tuples + Span_relation.cardinal rel;
        rel)
  in
  let rel =
    match o with
    | Gen.Read d -> eval "incr.eval.read" inp.names.(d)
    | _ ->
        let doc, e = cde_of inp o in
        let name = inp.names.(doc) in
        ignore (with_span ~parent:root ~op "cde.materialize" (fun _ -> Cde.materialize sess.db name e));
        eval "incr.eval.edited" name
  in
  close_span root;
  digest_relation rel

let trace ~size inp =
  let n = min (size.trace_skip + size.trace_ops) (Array.length inp.ops) in
  let skip = min size.trace_skip n in
  let exp = expected inp n in
  let in_window i = i >= skip in
  let edits = ref 0 in
  (* three sessions take every op in turn, so they share heap and host
     state: the production path (untraced), the decomposition
     untraced, and the decomposition traced.  The first [skip] ops
     bring the summary LRU to its steady state and are not measured. *)
  let prod_s, _, compress_t = setup inp in
  let dec_s, _, _ = setup inp in
  let traced_s, _, _ = setup inp in
  let gc_acc = ref (0., 0., 0.) in
  let edit_t = ref 0. and t_untraced = ref 0. and t_traced = ref 0. in
  let st0 = ref (Incr.stats traced_s.s) in
  reset_spans ();
  let prod = Array.make n "" and untraced = Array.make n "" and traced = Array.make n "" in
  let pulls = ref 0 and tuples = ref 0 in
  for i = 0 to n - 1 do
    if i = skip then st0 := Incr.stats traced_s.s;
    let op = inp.ops.(i) in
    let is_edit = match op with Gen.Read _ -> false | _ -> true in
    if in_window i && is_edit then incr edits;
    let (m0, p0, c0) = gc_counts () in
    let t0 = now () in
    let r = run_op prod_s inp op in
    let t1 = now () in
    let (m1, p1, c1) = gc_counts () in
    if in_window i then begin
      let (am, ap, ac) = !gc_acc in
      gc_acc := (am +. (m1 -. m0), ap +. (p1 -. p0), ac +. (c1 -. c0));
      if is_edit then edit_t := !edit_t +. (t1 -. t0)
    end;
    prod.(i) <- digest_relation r;
    let t0 = now () in
    untraced.(i) <- decomposed_op dec_s inp ~op:i ~pulls:(ref 0) ~tuples:(ref 0) op;
    if in_window i then t_untraced := !t_untraced +. (now () -. t0);
    tracer.enabled <- in_window i;
    let t0 = now () in
    let pulls, tuples = if in_window i then (pulls, tuples) else (ref 0, ref 0) in
    traced.(i) <- decomposed_op traced_s inp ~op:i ~pulls ~tuples op;
    if in_window i then t_traced := !t_traced +. (now () -. t0);
    tracer.enabled <- false
  done;
  let edits = !edits in
  let st0 = !st0 and st1 = Incr.stats traced_s.s in
  let wrong = count_wrong exp prod + count_wrong exp untraced + count_wrong exp traced in
  let spans = summarise_spans () in
  let s name = span_get spans name in
  let mean name = ratio (s name).total (float_of_int (s name).calls) in
  let ops = float_of_int (n - skip) in
  let d f = float_of_int (f st1 - f st0) in
  let misses = d (fun x -> x.Incr.misses) and hits = d (fun x -> x.Incr.hits) in
  let text_mb = float_of_int (Array.fold_left (fun a t -> a + String.length t) 0 inp.texts) /. 1048576. in
  let metrics =
    [
      ("incr.edit_ms", metric "ms" (ratio !edit_t (float_of_int edits) *. 1000.));
      ("incr.eval_ms.edited", metric "ms" (mean "incr.eval.edited" *. 1000.));
      ("incr.eval_ms.read", metric "ms" (mean "incr.eval.read" *. 1000.));
      ("incr.misses_per_op", metric "count" (misses /. ops));
      ("incr.hit_ratio", metric "ratio" (ratio hits (hits +. misses)));
      ("incr.evictions_per_op", metric "count" (d (fun x -> x.Incr.evictions) /. ops));
      ( "incr.stage_sum_ratio",
        metric "ratio" (((s "cde.materialize").total +. (s "incr.eval.edited").total) /. !edit_t) );
      ("cde.materialize_us", metric "us" (mean "cde.materialize" *. 1e6));
      ("plan.make_us", metric "us" (mean "plan.make" *. 1e6));
      ("cursor.pulls_per_op", metric "count" (float_of_int !pulls /. ops));
      ("cursor.drain_ns_per_tuple", metric "ns" (ratio (s "cursor.drain").total (float_of_int !tuples) *. 1e9));
      ("cde.nodes_per_edit", metric "count" (d (fun x -> x.Incr.nodes_created) /. float_of_int (max 1 edits)));
      ("doc_db.compress_ms_per_mb", metric "ms/MB" (compress_t *. 1000. /. text_mb));
      ("trace.overhead_frac", metric "ratio" ((!t_traced /. !t_untraced) -. 1.));
    ]
    @ gc_metrics ~ops:(n - skip) (0., 0., 0.) !gc_acc
  in
  (3 * n, wrong, wrong = 0, metrics, ("edits", Int edits) :: span_facts spans)
