(* serve-warm: a warm spanner_cli server under two closed-loop clients.

   The server runs in its own process with its default worker crew.
   Set-up spawns it, DEFINEs the queries, LOADs the documents and the
   archive arena, and sends one warm-up request per (query, document),
   so every engine sweep is paid before the clock starts.  The measured
   phase then runs one seeded schedule of QUERY requests from two
   client connections: the wire, Session, the Scheduler handoff,
   Registry's cache probes and ratio gate, cursor set-up and R-line
   encoding are what it measures. *)

open Common
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Corpus = Spanner_store.Corpus
module Client = Spanner_serve.Client
module Server = Spanner_serve.Server
module Registry = Spanner_serve.Registry
module Scheduler = Spanner_serve.Scheduler
module Protocol = Spanner_serve.Protocol
module Optimizer = Spanner_engine.Optimizer
module Cursor = Spanner_engine.Cursor
module Limits = Spanner_util.Limits
open Spanner_core

type size = {
  logs : int;
  log_lines : int;
  noisy : int;
  noisy_lines : int;
  chunk_lines : int;
  doublings : int;
  native : int;  (* requests per pass, by group *)
  fallback : int;
  selection : int;
  archive : int;
  passes : int;  (* distinct passes in the schedule *)
  live_passes : int;  (* traced run: schedule lengths of the live pass and of each replay *)
  replay_passes : int;
}

let full =
  {
    logs = 6;
    log_lines = 72;
    noisy = 6;
    noisy_lines = 48;
    chunk_lines = 8;
    doublings = 10;
    native = 74;
    fallback = 24;
    selection = 1;
    archive = 1;
    passes = 10;
    live_passes = 3;
    replay_passes = 2;
  }

let tiny =
  {
    logs = 2;
    log_lines = 40;
    noisy = 2;
    noisy_lines = 12;
    chunk_lines = 8;
    doublings = 4;
    native = 12;
    fallback = 6;
    selection = 4;
    archive = 2;
    passes = 1;
    live_passes = 1;
    replay_passes = 1;
  }

type inputs = {
  texts : (string, string) Hashtbl.t;  (* doc name -> plain text *)
  log_names : string array;
  noisy_names : string array;
  arena : string;  (* the archive arena file, relative to the working directory *)
  pass : Gen.request array;  (* the schedule: [passes] shuffled passes *)
  archive_ratio : float;  (* derived length over compressed nodes *)
  pack_s : float;  (* Corpus.pack of the archive arena *)
}

(* ------------------------------------------------------------------ *)
(* Inputs *)

let generate ~size ~seed ~work =
  let r = Gen.rng ~seed ~salt:1 in
  let texts = Hashtbl.create 16 in
  let log_names = Array.init size.logs (Printf.sprintf "log%02d") in
  let noisy_names = Array.init size.noisy (Printf.sprintf "noisy%02d") in
  Array.iter (fun n -> Hashtbl.replace texts n (Gen.log_doc r ~lines:size.log_lines)) log_names;
  Array.iter (fun n -> Hashtbl.replace texts n (Gen.noisy_doc r ~lines:size.noisy_lines)) noisy_names;
  (* the archive: one chunk doubled until its ratio is in the
     thousands, packed as a single arena (never a multi-shard
     manifest: see NOTES.md on the engine-cache shard key) *)
  let chunk = Gen.archive_chunk r ~lines:size.chunk_lines in
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "archive" chunk);
  for _ = 1 to size.doublings do
    ignore (Cde.materialize db "archive" (Cde.Concat (Cde.Doc "archive", Cde.Doc "archive")))
  done;
  let archive_ratio = float_of_int (Doc_db.total_len db) /. float_of_int (Doc_db.compressed_size db) in
  let arena = Filename.concat work "archive.slpar" in
  let t0 = now () in
  ignore (Corpus.pack db ~shards:1 arena);
  let pack_s = now () -. t0 in
  let b = Buffer.create (String.length chunk lsl size.doublings) in
  for _ = 1 to 1 lsl size.doublings do
    Buffer.add_string b chunk
  done;
  Hashtbl.replace texts "archive" (Buffer.contents b);
  let pass =
    Array.concat
      (List.init size.passes (fun _ ->
           Gen.serve_pass r ~log_docs:log_names ~noisy_docs:noisy_names ~native:size.native
             ~fallback:size.fallback ~selections:size.selection ~archive:size.archive))
  in
  { texts; log_names; noisy_names; arena; pass; archive_ratio; pack_s }

let inputs_digest inp =
  let b = Buffer.create 4096 in
  Array.iter
    (fun n -> Buffer.add_string b (n ^ "\n" ^ Hashtbl.find inp.texts n))
    (Array.append inp.log_names inp.noisy_names);
  Buffer.add_string b (read_file inp.arena);
  Array.iter (fun q -> Buffer.add_string b (Gen.request_payload q ^ "\n")) inp.pass;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Oracle: every response is checked against Compiled.eval on the
   plain text (plus Span_relation.select_equal for the selection). *)

let query_body name =
  if name = fst Gen.selection then snd Gen.selection else List.assoc name (Array.to_list Gen.extractors)

let oracle_table inp =
  let tbl = Hashtbl.create 64 in
  fun query doc ->
    match Hashtbl.find_opt tbl (query, doc) with
    | Some s -> s
    | None ->
        let text = Hashtbl.find inp.texts doc in
        let rel =
          if query = fst Gen.selection then
            oracle_selection ~vars:[ "a"; "b" ] ".*user=!a{[a-z]+} .*user=!b{[a-z]+} .*" text
          else oracle_formula (query_body query) text
        in
        let set = Hashtbl.create 64 in
        List.iter (fun t -> Hashtbl.replace set t ()) (canon_relation rel);
        Hashtbl.replace tbl (query, doc) set;
        set

let strip_prefix p s =
  if String.starts_with ~prefix:p s then Some (String.sub s (String.length p) (String.length s - String.length p))
  else None

(* [check oracle req frames] is [true] iff the response frames answer
   [req] correctly: first — a member (or none when the set is empty);
   window — a duplicate-free subset of size min(k, n); count — exact;
   stream — the exact set. *)
let check oracle (req : Gen.request) frames =
  let set = oracle req.Gen.query req.Gen.doc in
  let n = Hashtbl.length set in
  let stream_tuples () =
    match frames with
    | header :: rest when String.starts_with ~prefix:"OK stream" header -> (
        match List.rev rest with
        | last :: windows -> (
            match strip_prefix "END " last with
            | None -> None
            | Some m ->
                let lines =
                  List.concat_map (String.split_on_char '\n') (List.rev windows)
                  |> List.filter (fun l -> l <> "")
                in
                let tuples = List.map (fun l -> Option.bind (strip_prefix "R " l) parse_wire_tuple) lines in
                if List.exists Option.is_none tuples then None
                else
                  let tuples = List.map Option.get tuples in
                  if int_of_string_opt m <> Some (List.length tuples) then None else Some tuples)
        | [] -> None)
    | _ -> None
  in
  let distinct_members ts =
    let seen = Hashtbl.create 16 in
    List.for_all
      (fun t ->
        let fresh = not (Hashtbl.mem seen t) in
        Hashtbl.replace seen t ();
        fresh && Hashtbl.mem set t)
      ts
  in
  match (req.Gen.format, frames) with
  | Gen.Count, [ f ] -> f = Printf.sprintf "OK count %d" n
  | Gen.First, [ "OK first" ] -> n = 0
  | Gen.First, [ f ] -> (
      match Option.bind (strip_prefix "OK first " f) parse_wire_tuple with
      | Some t -> Hashtbl.mem set t
      | None -> false)
  | Gen.Window, _ -> (
      match stream_tuples () with
      | Some ts -> List.length ts = min 5 n && distinct_members ts
      | None -> false)
  | Gen.Stream, _ -> (
      match stream_tuples () with
      | Some ts -> List.length ts = n && distinct_members ts
      | None -> false)
  | _ -> false

(* Responses are deterministic per request, so each distinct response
   is kept once (by digest) and checked after the phase, off the
   clock; a wrong answer that appears once is kept and caught. *)
type seen = (int * Digest.t, string list * int ref) Hashtbl.t

let note (seen : seen) idx frames =
  let d = Digest.string (String.concat "\x00" frames) in
  match Hashtbl.find_opt seen (idx, d) with
  | Some (_, c) -> incr c
  | None -> Hashtbl.replace seen (idx, d) (frames, ref 1)

(* Number of wrong responses among those seen. *)
let wrong_answers inp pass seens =
  let oracle = oracle_table inp in
  List.fold_left
    (fun acc (seen : seen) ->
      Hashtbl.fold
        (fun (idx, _) (frames, count) acc ->
          if check oracle pass.(idx) frames then acc
          else begin
            Printf.eprintf "wrong answer: %s -> %s\n%!" (Gen.request_payload pass.(idx))
              (String.concat " | " frames);
            acc + !count
          end)
        seen acc)
    0 seens

(* ------------------------------------------------------------------ *)
(* The server process *)

type server = { pid : int; addr : Server.address; conn : Client.t }

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Stop the server through the protocol and wait for it to exit;
   SIGKILL if it has not gone within 10 s. *)
let stop_server s =
  (try ignore (Client.request s.conn "SHUTDOWN") with _ -> ());
  (try Client.close s.conn with _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ -> kill_server s.pid
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let expect_ok conn payload =
  match Client.request conn payload with
  | [ f ] when Client.err_code f = None -> ()
  | frames ->
      fail "set-up request %S failed: %s"
        (List.hd (String.split_on_char '\n' payload))
        (String.concat " | " frames)

(* Warm-up targets: each distinct (query, store, document) of the pass. *)
let warm_targets pass =
  let seen = Hashtbl.create 32 in
  Array.to_list pass
  |> List.filter (fun (q : Gen.request) ->
         let k = (q.Gen.query, q.Gen.store, q.Gen.doc) in
         if Hashtbl.mem seen k then false
         else begin
           Hashtbl.replace seen k ();
           true
         end)

(* Set-up, timed from nothing to ready: spawn, DEFINE, LOAD, warm-up. *)
let setup ~cli ~sock inp =
  let t0 = now () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close devnull) (fun () ->
        Unix.create_process cli [| cli; "serve"; "unix:" ^ sock |] devnull devnull devnull)
  in
  try
    let addr = Server.Unix_socket sock in
    let rec connect () =
      match Client.connect addr with
      | c -> c
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when now () -. t0 < 60. ->
          Unix.sleepf 0.002;
          connect ()
    in
    let conn = connect () in
    Array.iter (fun (n, f) -> expect_ok conn (Printf.sprintf "DEFINE %s\n%s" n f)) Gen.extractors;
    expect_ok conn (Printf.sprintf "DEFINE %s\n%s" (fst Gen.selection) (snd Gen.selection));
    Array.iter
      (fun n -> expect_ok conn (Printf.sprintf "LOAD s DOC %s\n%s" n (Hashtbl.find inp.texts n)))
      (Array.append inp.log_names inp.noisy_names);
    expect_ok conn (Printf.sprintf "LOAD a PATH %s" inp.arena);
    List.iter
      (fun (q : Gen.request) ->
        expect_ok conn (Gen.request_payload { q with Gen.format = Gen.Count }))
      (warm_targets inp.pass);
    ({ pid; addr; conn }, now () -. t0)
  with e ->
    kill_server pid;
    raise e

(* STATS counters as (key, value) pairs, keys prefixed by their line:
   "plan_cache.hits", "scheduler.completed", ... *)
let stats_counters conn =
  match Client.request conn "STATS" with
  | [ f ] when String.starts_with ~prefix:"OK stats" f ->
      String.split_on_char '\n' f
      |> List.concat_map (fun line ->
             match String.index_opt line ':' with
             | Some i when not (String.starts_with ~prefix:"store " line) ->
                 let prefix = String.sub line 0 i in
                 String.sub line (i + 1) (String.length line - i - 1)
                 |> String.split_on_char ' '
                 |> List.filter_map (fun kv ->
                        match String.split_on_char '=' kv with
                        | [ k; v ] -> (
                            let v = match String.index_opt v '/' with Some j -> String.sub v 0 j | None -> v in
                            match int_of_string_opt v with
                            | Some n -> Some (prefix ^ "." ^ k, n)
                            | None -> None)
                        | _ -> None)
             | _ -> [])
  | frames -> fail "STATS failed: %s" (String.concat " | " frames)

let stats_delta before after =
  List.map (fun (k, v) -> (k, v - Option.value (List.assoc_opt k before) ~default:0)) after

(* ------------------------------------------------------------------ *)
(* Closed-loop clients *)

type outcome = { idx : int; latency : float; ok : bool; bytes : int }

(* [drive s inp ~stop ~on_op] runs the schedule from two connections,
   each sending request [i] (a shared counter) unless [stop i started_at]
   holds, and returns every outcome, the distinct responses, and the
   phase's wall time.  [on_op n] runs after the n-th completed op, off
   its latency clock. *)
let drive s inp ~stop ~on_op =
  let pass = inp.pass in
  let p = Array.length pass in
  let next = Atomic.make 0 and completed = Atomic.make 0 in
  let t_start = now () in
  let last = Atomic.make t_start in
  let client () =
    let outcomes = ref [] and seen : seen = Hashtbl.create 256 in
    let conn = ref (Client.connect s.addr) in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if not (stop i t_start) then begin
        let idx = i mod p in
        let payload = Gen.request_payload pass.(idx) in
        let t0 = now () in
        let result = try Ok (Client.request !conn payload) with e -> Error e in
        let t1 = now () in
        let o =
          match result with
          | Ok frames ->
              let ok = not (List.exists (fun f -> Client.err_code f <> None) frames) in
              if ok then note seen idx frames;
              {
                idx;
                latency = t1 -. t0;
                ok;
                bytes = List.fold_left (fun a f -> a + String.length (Protocol.frame f)) 0 frames;
              }
          | Error _ ->
              (try Client.close !conn with _ -> ());
              (try conn := Client.connect s.addr with _ -> ());
              { idx; latency = t1 -. t0; ok = false; bytes = 0 }
        in
        outcomes := o :: !outcomes;
        let n = Atomic.fetch_and_add completed 1 + 1 in
        on_op n;
        let rec bump () =
          let l = Atomic.get last in
          if t1 > l && not (Atomic.compare_and_set last l t1) then bump ()
        in
        bump ();
        loop ()
      end
    in
    loop ();
    (try Client.close !conn with _ -> ());
    (!outcomes, seen)
  in
  let results = Array.make 2 ([], Hashtbl.create 1) in
  let threads = List.init 2 (fun k -> Thread.create (fun () -> results.(k) <- client ()) ()) in
  List.iter Thread.join threads;
  let outcomes = List.concat_map fst (Array.to_list results) in
  let seens = List.map snd (Array.to_list results) in
  (outcomes, seens, Atomic.get last -. t_start)

(* Request classes of the live pass: native requests by format, and
   every request the server answers from decompressed text. *)
let class_of (q : Gen.request) =
  if q.Gen.target = Gen.Noisy || q.Gen.query = fst Gen.selection then "fallback"
  else Gen.format_name q.Gen.format

(* Finer classes for the run facts: the fallback class split by cause,
   and the archive counts apart. *)
let fine_class (q : Gen.request) =
  match q.Gen.target with
  | _ when q.Gen.query = fst Gen.selection -> "selection"
  | Gen.Noisy -> "noisy"
  | Gen.Archive -> "archive"
  | Gen.Log -> Gen.format_name q.Gen.format

(* Latencies with failures ranked above every latency. *)
let latency_sorted outcomes =
  sorted_of_list (List.map (fun o -> if o.ok then o.latency else infinity) outcomes)

(* ------------------------------------------------------------------ *)
(* Modes *)

let with_server ~cli ~sock inp f =
  let s, setup_s = setup ~cli ~sock inp in
  match f s setup_s with
  | v ->
      stop_server s;
      v
  | exception e ->
      kill_server s.pid;
      raise e

let setup_only ~cli ~sock inp = with_server ~cli ~sock inp (fun _ setup_s -> setup_s)

let run ~cli ~sock ~seconds inp =
  with_server ~cli ~sock inp (fun s setup_s ->
      let before = stats_counters s.conn in
      let p = Array.length inp.pass in
      let hwm = ref nan in
      let cpu0 = proc_cpu_s s.pid in
      let outcomes, seens, wall =
        drive s inp
          ~stop:(fun _ t_start -> now () >= t_start +. seconds)
          ~on_op:(fun n -> if n = p then hwm := vm_hwm_mb (string_of_int s.pid))
      in
      let cpu1 = proc_cpu_s s.pid in
      let after = stats_counters s.conn in
      if Float.is_nan !hwm then hwm := vm_hwm_mb (string_of_int s.pid);
      let wrong = wrong_answers inp inp.pass seens in
      let attempted = List.length outcomes in
      let errors = List.length (List.filter (fun o -> not o.ok) outcomes) in
      let completed = attempted - errors in
      let lat = latency_sorted outcomes in
      let metrics =
        [
          ("setup_s", metric "s" setup_s);
          ("throughput_ops_s", metric "ops/s" (float_of_int completed /. wall));
          ("latency_p50_ms", metric "ms" (percentile lat 0.5 *. 1000.));
          ("latency_p90_ms", metric "ms" (percentile lat 0.9 *. 1000.));
          ("peak_rss_mb", metric "MB" !hwm);
          ("cpu_ms_per_op", metric "ms" ((cpu1 -. cpu0) *. 1000. /. float_of_int (max 1 completed)));
        ]
      in
      let classes =
        List.map (fun o -> (fine_class inp.pass.(o.idx), if o.ok then o.latency else infinity)) outcomes
      in
      let facts =
        (("archive_ratio", Num inp.archive_ratio) :: class_facts classes)
        @ class_summary classes
        @ List.map (fun (k, v) -> ("stats_delta." ^ k, Int v)) (stats_delta before after)
      in
      (attempted, errors + wrong, wrong = 0, metrics, facts))

(* ------------------------------------------------------------------ *)
(* Traced run *)

let opts_of (q : Gen.request) =
  let d = Protocol.default_opts in
  match q.Gen.format with
  | Gen.First -> { d with Protocol.format = Protocol.First }
  | Gen.Window -> { d with Protocol.limit = Some 5 }
  | Gen.Count -> { d with Protocol.format = Protocol.Count }
  | Gen.Stream -> d

let pp_tuple t = Format.asprintf "%a" Span_tuple.pp t
let pp_vars vs = Format.asprintf "%a" Variable.pp_set vs

type job_result = {
  frames : string list;
  native : bool;
  pulls : int;
  text_kb : float;  (* decompressed-path text, KB (0 on the native path) *)
  fused_fallback : bool;
  streamed : int;  (* tuples written as R-lines (0 unless a full stream) *)
}

(* Session's worker job and its response encoding, rebuilt from public
   calls, with spans at every module boundary.  [job] runs on the
   worker domain; [encode] on the submitting thread, as Session streams
   on its session thread. *)
let job reg ~op ~root (q : Gen.request) () =
  let started = now () in
  let r =
    with_span ~parent:root ~op "serve.job" (fun js ->
        let opts = opts_of q in
        let limits = Registry.effective_limits reg opts in
        let normalized, plan =
          with_span ~parent:js ~op "registry.plan" (fun _ ->
              Registry.plan_normalized reg (Protocol.Named q.Gen.query))
        in
        let gauge = Limits.start limits in
        let store = q.Gen.store and doc = q.Gen.doc in
        let native =
          with_span ~parent:js ~op "registry.native_cursor" (fun _ ->
              Registry.native_cursor reg ~gauge ~normalized ~store ~doc plan)
        in
        let base, native, text_kb =
          match native with
          | Some c -> (c, true, 0.)
          | None ->
              let text =
                with_span ~parent:js ~op "registry.doc_text" (fun _ ->
                    Registry.doc_text reg ~gauge ~store ~doc)
              in
              ( with_span ~parent:js ~op "optimizer.cursor" (fun _ -> Optimizer.cursor ~limits plan text),
                false,
                float_of_int (String.length text) /. 1024. )
        in
        let cursor = match opts.Protocol.limit with Some k -> Cursor.take base k | None -> base in
        let first_name = if native then "cursor.first.native" else "cursor.first.fallback" in
        let outcome =
          match opts.Protocol.format with
          | Protocol.Tuples -> `Stream cursor
          | Protocol.Count ->
              `Count (with_span ~parent:js ~op "cursor.count" (fun _ -> Cursor.cardinal cursor))
          | Protocol.First ->
              `First (with_span ~parent:js ~op first_name (fun _ -> Cursor.next cursor))
        in
        (outcome, base, native, text_kb, Optimizer.fully_fused plan, Optimizer.schema plan, first_name))
  in
  (started, r)

let encode ~op ~root (outcome, base, native, text_kb, fused, schema, first_name) =
  let frames, streamed =
    match outcome with
    | `Count n -> ([ Printf.sprintf "OK count %d" n ], 0)
    | `First None -> ([ "OK first" ], 0)
    | `First (Some t) -> ([ Printf.sprintf "OK first %s" (pp_tuple t) ], 0)
    | `Stream cursor ->
        (* Session's stream loop: R-lines in windows of 64 per frame *)
        let frames = ref [ Printf.sprintf "OK stream %s" (pp_vars schema) ] in
        let buf = Buffer.create 256 and count = ref 0 and in_window = ref 0 in
        let flush () =
          if Buffer.length buf > 0 then begin
            frames := Buffer.sub buf 0 (Buffer.length buf - 1) :: !frames;
            Buffer.clear buf
          end
        in
        let rec pull enc =
          let name = if !count = 0 then first_name else if native then "cursor.next.native" else "cursor.next.fallback" in
          match with_span ~parent:enc ~op name (fun _ -> Cursor.next cursor) with
          | None -> ()
          | Some t ->
              Buffer.add_string buf "R ";
              Buffer.add_string buf (pp_tuple t);
              Buffer.add_char buf '\n';
              incr count;
              incr in_window;
              if !in_window >= 64 then begin
                flush ();
                in_window := 0
              end;
              pull enc
        in
        (* the pulls are the encode span's children, so its self time is
           the R-line encoding and its children's time the drain *)
        with_span ~parent:root ~op "protocol.encode" pull;
        flush ();
        (List.rev (Printf.sprintf "END %d" !count :: !frames), !count)
  in
  { frames; native; pulls = Cursor.pulls base; text_kb; fused_fallback = (not native) && fused; streamed }

(* Replays requests [first .. first+n-1] of the schedule (cyclically)
   through [reg] and [sched] from two submitter threads.  Returns per-op (request index, job result,
   scheduler wait) and the wall time. *)
let replay reg sched pass ~first ~n =
  let p = Array.length pass in
  let next = Atomic.make first in
  let submitter () =
    let acc = ref [] in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < first + n then begin
        let q = pass.(i mod p) in
        let root = open_span ~parent:(-1) ~op:i "op" in
        let submitted = now () in
        let r =
          match Scheduler.run sched (job reg ~op:i ~root q) with
          | Some (Ok (started, r)) ->
              let res = encode ~op:i ~root r in
              Ok (res, started -. submitted)
          | Some (Error e) -> Error e
          | None -> Error (Failure "shed")
        in
        close_span root;
        acc := (i mod p, r) :: !acc;
        loop ()
      end
    in
    loop ();
    !acc
  in
  let t0 = now () in
  let out = Array.make 2 [] in
  let threads = List.init 2 (fun k -> Thread.create (fun () -> out.(k) <- submitter ()) ()) in
  List.iter Thread.join threads;
  (List.concat (Array.to_list out), now () -. t0)

let trace ~cli ~sock ~size inp =
  let size_ops passes = passes * Array.length inp.pass in
  (* 1. the live, untraced pass: client latency per class and STATS *)
  let live =
    with_server ~cli ~sock inp (fun s _ ->
        let before = stats_counters s.conn in
        let total = size_ops size.live_passes in
        let outcomes, seens, _ = drive s inp ~stop:(fun i _ -> i >= total) ~on_op:(fun _ -> ()) in
        let after = stats_counters s.conn in
        (outcomes, seens, stats_delta before after))
  in
  let outcomes, seens, delta = live in
  let wrong_live = wrong_answers inp inp.pass seens in
  let class_p50 cls =
    List.filter_map
      (fun o -> if o.ok && class_of inp.pass.(o.idx) = cls then Some o.latency else None)
      outcomes
    |> median_of
  in
  let d k = float_of_int (Option.value (List.assoc_opt k delta) ~default:0) in
  let hit_ratio cache = ratio (d (cache ^ ".hits")) (d (cache ^ ".hits") +. d (cache ^ ".misses")) in
  let live_ops = List.length outcomes in
  let resp_bytes = List.fold_left (fun a o -> a + o.bytes) 0 outcomes in
  (* 2. in-process replay through Registry and Scheduler *)
  let reg = Registry.create ~plan_capacity:128 ~doc_capacity:128 ~defaults:Limits.none () in
  let sched = Scheduler.create ~capacity:64 () in
  Fun.protect ~finally:(fun () -> Scheduler.shutdown sched) (fun () ->
      let load_t = ref 0. and load_bytes = ref 0 in
      Array.iter
        (fun n ->
          let text = Hashtbl.find inp.texts n in
          let t0 = now () in
          ignore (Registry.load_doc reg ~store:"s" ~doc:n ~text);
          load_t := !load_t +. (now () -. t0);
          load_bytes := !load_bytes + String.length text)
        (Array.append inp.log_names inp.noisy_names);
      let t0 = now () in
      ignore (Registry.load_path reg ~store:"a" ~path:inp.arena);
      let open_t = now () -. t0 in
      let defines =
        Array.to_list Gen.extractors @ [ Gen.selection ]
        |> List.map (fun (n, f) ->
               let t0 = now () in
               ignore (Registry.define reg ~name:n ~body:f);
               now () -. t0)
      in
      (* warm-up, as the server's set-up does: native warm-ups pay the
         engine sweeps *)
      let sweep_t = ref [] in
      List.iteri
        (fun i (q : Gen.request) ->
          let q = { q with Gen.format = Gen.Count } in
          let t0 = now () in
          match Scheduler.run sched (job reg ~op:(-1 - i) ~root:(-1) q) with
          | Some (Ok (_, r)) ->
              let res = encode ~op:(-1) ~root:(-1) r in
              if res.native then sweep_t := (now () -. t0) :: !sweep_t
          | _ -> fail "replay warm-up failed: %s" (Gen.request_payload q))
        (warm_targets inp.pass);
      (* untraced and traced replays alternate in blocks over the same
         requests, so both see the same heap and host state *)
      let block = min 250 (size_ops size.replay_passes) in
      let blocks = size_ops size.replay_passes / block in
      let gc_acc = ref (0., 0., 0.) in
      let untraced = ref [] and traced = ref [] and t_untraced = ref 0. and t_traced = ref 0. in
      reset_spans ();
      for b = 0 to blocks - 1 do
        let (m0, p0, c0) = gc_counts () in
        let r, t = replay reg sched inp.pass ~first:(b * block) ~n:block in
        let (m1, p1, c1) = gc_counts () in
        let (am, ap, ac) = !gc_acc in
        gc_acc := (am +. (m1 -. m0), ap +. (p1 -. p0), ac +. (c1 -. c0));
        untraced := r @ !untraced;
        t_untraced := !t_untraced +. t;
        tracer.enabled <- true;
        let r, t = replay reg sched inp.pass ~first:(b * block) ~n:block in
        tracer.enabled <- false;
        traced := r @ !traced;
        t_traced := !t_traced +. t
      done;
      let untraced = !untraced and traced = !traced and t_untraced = !t_untraced and t_traced = !t_traced in
      let spans = summarise_spans () in
      (* check every replayed answer *)
      let seen : seen = Hashtbl.create 256 in
      let failed = ref 0 in
      List.iter
        (fun (idx, r) ->
          match r with Ok (res, _) -> note seen idx res.frames | Error _ -> incr failed)
        (untraced @ traced);
      let wrong_replay = wrong_answers inp inp.pass [ seen ] in
      let oks = List.filter_map (fun (_, r) -> Result.to_option r) traced in
      let waits = sorted_of_list (List.map snd oks) in
      let results = List.map fst oks in
      let ops = float_of_int (List.length traced) in
      let mean_us name = let s = span_get spans name in ratio s.total (float_of_int s.calls) *. 1e6 in
      let fused_kb = List.fold_left (fun a r -> if r.fused_fallback then a +. r.text_kb else a) 0. results in
      let fused_cursor_t =
        (* Optimizer.cursor time on fully fused plans over decompressed
           text: the compiled document pass *)
        let s = span_get spans "optimizer.cursor" in
        let total_kb = List.fold_left (fun a r -> a +. r.text_kb) 0. results in
        s.total *. ratio fused_kb total_kb
      in
      let next_native = span_get spans "cursor.next.native" in
      let encode_s = span_get spans "protocol.encode" in
      let streamed = List.fold_left (fun a r -> a + r.streamed) 0 results in
      let sched_stats = Scheduler.stats sched in
      let metrics =
        [
          ("serve.first_p50_ms", metric "ms" (class_p50 "first" *. 1000.));
          ("serve.window_p50_ms", metric "ms" (class_p50 "window" *. 1000.));
          ("serve.count_p50_ms", metric "ms" (class_p50 "count" *. 1000.));
          ("serve.stream_p50_ms", metric "ms" (class_p50 "stream" *. 1000.));
          ("serve.fallback_p50_ms", metric "ms" (class_p50 "fallback" *. 1000.));
          ("serve.job_p50_ms", metric "ms" (median_of (span_get spans "serve.job").durations *. 1000.));
          ("protocol.resp_bytes_per_op", metric "bytes" (float_of_int resp_bytes /. float_of_int (max 1 live_ops)));
          ("scheduler.wait_p50_ms", metric "ms" (percentile waits 0.5 *. 1000.));
          ("scheduler.wait_p90_ms", metric "ms" (percentile waits 0.9 *. 1000.));
          ("scheduler.max_queued", metric "count" (float_of_int sched_stats.Scheduler.max_queued));
          ("registry.plan_us", metric "us" (mean_us "registry.plan"));
          ("registry.native_cursor_us", metric "us" (mean_us "registry.native_cursor"));
          ("registry.doc_text_us", metric "us" (mean_us "registry.doc_text"));
          ( "registry.native_share",
            metric "ratio"
              (ratio (float_of_int (List.length (List.filter (fun r -> r.native) results))) ops) );
          ("registry.plan_hit_ratio", metric "ratio" (hit_ratio "plan_cache"));
          ("registry.doc_hit_ratio", metric "ratio" (hit_ratio "doc_cache"));
          ("registry.engine_hit_ratio", metric "ratio" (hit_ratio "engine_cache"));
          ("optimizer.optimize_ms", metric "ms" (mean_of defines *. 1000.));
          ("optimizer.cursor_ms", metric "ms" (mean_us "optimizer.cursor" /. 1000.));
          ("cursor.first_us.native", metric "us" (mean_us "cursor.first.native"));
          ("cursor.first_us.fallback", metric "us" (mean_us "cursor.first.fallback"));
          ("cursor.next_us.native", metric "us" (ratio next_native.total (float_of_int next_native.calls) *. 1e6));
          ( "cursor.pulls_per_op",
            metric "count" (float_of_int (List.fold_left (fun a r -> a + r.pulls) 0 results) /. ops) );
          ( "cursor.drain_ns_per_tuple",
            metric "ns" (ratio (encode_s.total -. encode_s.self) (float_of_int streamed) *. 1e9) );
          ("compiled.prepare_us_per_kb", metric "us/KB" (ratio fused_cursor_t fused_kb *. 1e6));
          ("slp_spanner.sweep_ms", metric "ms" (mean_of !sweep_t *. 1000.));
          ("store.pack_ms", metric "ms" (inp.pack_s *. 1000.));
          ("store.open_us", metric "us" (open_t *. 1e6));
          ( "store.resident_mb",
            metric "MB"
              (List.fold_left
                 (fun a (i : Registry.store_info) -> if i.Registry.kind = "arena" then a +. float_of_int i.Registry.resident else a)
                 0. (Registry.stores_info reg)
              /. 1048576.) );
          ("doc_db.compress_ms_per_mb", metric "ms/MB" (!load_t *. 1000. /. (float_of_int !load_bytes /. 1048576.)));
          ("trace.overhead_frac", metric "ratio" ((t_traced /. t_untraced) -. 1.));
        ]
        @ gc_metrics ~ops:(List.length untraced) (0., 0., 0.) !gc_acc
      in
      let attempted = live_ops + List.length untraced + List.length traced in
      let failed =
        List.length (List.filter (fun o -> not o.ok) outcomes) + !failed + wrong_live + wrong_replay
      in
      let facts = List.map (fun (k, v) -> ("live_stats_delta." ^ k, Int v)) delta @ span_facts spans in
      (attempted, failed, wrong_live + wrong_replay = 0, metrics, facts))
