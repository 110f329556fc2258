(* Tests for the serve subsystem: wire protocol round-trips (QCheck),
   the bounded scheduler, the registry, and a full in-process server
   driven over a real unix socket. *)

open Spanner_serve
module Limits = Spanner_util.Limits
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db
module Serialize = Spanner_slp.Serialize
module Arena = Spanner_store.Arena
module Corpus = Spanner_store.Corpus
module Compiled = Spanner_core.Compiled
module Span_relation = Spanner_core.Span_relation
module Regex_formula = Spanner_core.Regex_formula
module Cursor = Spanner_engine.Cursor
module Optimizer = Spanner_engine.Optimizer

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame_roundtrip_basic () =
  let payloads = [ ""; "x"; "OK stats"; String.make 4096 'a'; "line1\nline2\n" ] in
  let buf = Buffer.create 64 in
  List.iter (fun p -> Protocol.encode_frame buf p) payloads;
  check
    Alcotest.(list string)
    "decode inverts encode" payloads
    (Protocol.decode_frames (Buffer.contents buf))

let frame_hostile () =
  let corrupt s =
    match Protocol.decode_frames ~max_frame:65536 s with
    | _ -> false
    | exception Limits.Spanner_error (Limits.Corrupt_input _) -> true
  in
  check Alcotest.bool "oversized length prefix" true (corrupt "999999999999999999\nX");
  check Alcotest.bool "truncated frame" true (corrupt "50\nhello");
  check Alcotest.bool "no newline after length" true (corrupt "123");
  check Alcotest.bool "non-digit length" true (corrupt "12a\nhello");
  check Alcotest.bool "negative length" true (corrupt "-3\nabc");
  check Alcotest.bool "just over the cap" true (corrupt "65537\nx")

(* ------------------------------------------------------------------ *)
(* QCheck round-trips *)

let payload_gen =
  (* arbitrary bytes including newlines and digits, the characters
     framing actually cares about *)
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300))

let qcheck_frames =
  QCheck2.Test.make ~name:"frame encode/decode round-trip" ~count:500
    QCheck2.Gen.(list_size (int_range 0 8) payload_gen)
    (fun payloads ->
      let buf = Buffer.create 64 in
      List.iter (fun p -> Protocol.encode_frame buf p) payloads;
      Protocol.decode_frames (Buffer.contents buf) = payloads)

let name_gen =
  QCheck2.Gen.(
    string_size
      ~gen:(oneof [ char_range 'a' 'z'; char_range '0' '9'; return '_'; return '.' ])
      (int_range 1 12))

let opts_gen =
  let open QCheck2.Gen in
  let axis = opt (int_range 0 1000) in
  let* limit = axis
  and* offset = int_range 0 50
  and* format = oneofl [ Protocol.Tuples; Protocol.Count; Protocol.First ]
  and* fuel = axis
  and* deadline_ms = axis
  and* max_states = axis
  and* max_tuples = axis in
  return { Protocol.limit; offset; format; fuel; deadline_ms; max_states; max_tuples }

let request_gen =
  let open QCheck2.Gen in
  let body_gen = string_size ~gen:printable (int_range 1 40) in
  let source_gen =
    oneof
      [
        map (fun n -> Protocol.Named n) name_gen;
        (* an inline body is the rest of the payload: any text
           without leading whitespace ambiguity round-trips *)
        map (fun b -> Protocol.Inline ("q" ^ b)) body_gen;
      ]
  in
  oneof
    [
      (let* name = name_gen and* body = body_gen in
       return (Protocol.Define { name; body = "b" ^ body }));
      (let* store = name_gen and* doc = name_gen and* body = body_gen in
       return (Protocol.Load_doc { store; doc; body = "b" ^ body }));
      (let* store = name_gen and* path = name_gen in
       return (Protocol.Load_path { store; path }));
      (let* source = source_gen and* store = name_gen and* doc = name_gen and* opts = opts_gen in
       return (Protocol.Query { source; store; doc; opts }));
      (let* source = source_gen and* opts = opts_gen in
       return (Protocol.Explain { source; opts }));
      return Protocol.Stats;
      return Protocol.Close;
      return Protocol.Shutdown;
    ]

let qcheck_requests =
  QCheck2.Test.make ~name:"request print/parse round-trip" ~count:1000 request_gen
    (fun req -> Protocol.parse_request (Protocol.request_to_string req) = req)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let scheduler_runs_jobs () =
  (* capacity covers every job: nothing may shed here *)
  let s = Scheduler.create ~workers:2 ~capacity:32 () in
  let results =
    List.init 20 (fun i -> Scheduler.submit s (fun () -> i * i))
    |> List.map (function Some t -> Scheduler.await t | None -> Alcotest.fail "shed")
  in
  Scheduler.shutdown s;
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> check Alcotest.int "job result" (i * i) v
      | Error _ -> Alcotest.fail "job raised")
    results

let scheduler_sheds () =
  (* one worker wedged on a slow job, capacity 1: the first extra job
     queues, the next is shed *)
  let s = Scheduler.create ~workers:1 ~capacity:1 () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let slow =
    Scheduler.submit s (fun () ->
        Mutex.lock gate;
        Mutex.unlock gate)
  in
  (* wait until the worker picked the slow job up, so the queue is
     observably empty before we fill it *)
  let rec settle n =
    if (Scheduler.stats s).Scheduler.queued > 0 then
      if n = 0 then Alcotest.fail "worker never started"
      else begin
        Unix.sleepf 0.001;
        settle (n - 1)
      end
  in
  settle 5_000;
  let queued = Scheduler.submit s (fun () -> ()) in
  let shed = Scheduler.submit s (fun () -> ()) in
  check Alcotest.bool "second job queued" true (queued <> None);
  check Alcotest.bool "third job shed" true (shed = None);
  check Alcotest.int "shed counted" 1 (Scheduler.stats s).Scheduler.shed;
  Mutex.unlock gate;
  (match slow with Some t -> ignore (Scheduler.await t) | None -> ());
  Scheduler.shutdown s

let scheduler_propagates_exn () =
  let s = Scheduler.create ~workers:1 ~capacity:4 () in
  let r = Scheduler.run s (fun () -> failwith "boom") in
  Scheduler.shutdown s;
  match r with
  | Some (Error (Failure m)) -> check Alcotest.string "exn carried" "boom" m
  | _ -> Alcotest.fail "expected Error (Failure _)"

(* ------------------------------------------------------------------ *)
(* Registry *)

let registry () = Registry.create ~defaults:Limits.none ()

let pairs_body = "[ab]*!x{ab}[ab]*"
let pairs_ct = Compiled.of_formula (Regex_formula.parse pairs_body)

(* [native_relation r ~store ~doc] is the drained native cursor of the
   pairs query, or [None] when the registry falls back to text *)
let native_relation r ~store ~doc =
  let normalized, plan = Registry.plan_normalized r (Protocol.Inline pairs_body) in
  Option.map Cursor.to_relation
    (Registry.native_cursor r ~gauge:(Limits.unlimited ()) ~normalized ~store ~doc plan)

(* the gate's contract, decided on an independent store: native exactly
   when the document's reachable nodes are at most half its length *)
let compressible text =
  let db = Doc_db.create () in
  let id = Doc_db.add_string db "d" text in
  Slp.reachable_size (Doc_db.store db) id <= String.length text / 2

let with_temp_dir f =
  let dir = Filename.temp_dir "spanner-serve" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let rep unit k = String.concat "" (List.init k (fun _ -> unit))

let registry_define_and_plan () =
  let r = registry () in
  let p1 = Registry.define r ~name:"q" ~body:"[ab]*!x{ab}[ab]*" in
  (* the same body inline, and under another name, share the entry *)
  let p2 = Registry.plan r (Protocol.Inline "[ab]*!x{ab}[ab]*") in
  let p3 = Registry.define r ~name:"q2" ~body:"[ab]*!x{ab}[ab]*" in
  check Alcotest.bool "inline shares the compiled plan" true (p1 == p2);
  check Alcotest.bool "re-define shares the compiled plan" true (p1 == p3);
  let stats = Registry.plan_cache_stats r in
  check Alcotest.int "one compilation" 1 stats.Registry.misses;
  check Alcotest.int "two cache hits" 2 stats.Registry.hits;
  match Registry.plan r (Protocol.Named "absent") with
  | _ -> Alcotest.fail "unknown name must fail"
  | exception Limits.Spanner_error (Limits.Eval_failure _) -> ()

(* DEFINE and inline bodies are compiled from their normalized
   (printed) text, so a class member the class grammar gives a meaning
   must print escaped, or the server answers a different query *)
let registry_class_bodies_survive_normalization () =
  let r = registry () in
  List.iteri
    (fun i body ->
      let direct = Compiled.of_formula (Regex_formula.parse body) in
      let defined = Registry.define r ~name:(Printf.sprintf "c%d" i) ~body in
      let inline = Registry.plan r (Protocol.Inline body) in
      List.iter
        (fun doc ->
          let expected = Compiled.eval direct doc in
          List.iter
            (fun (how, plan) ->
              let got = Optimizer.eval plan doc in
              if not (Span_relation.equal expected got) then
                Alcotest.failf "%s body %S on %S: %d tuple(s), direct parse gives %d" how body
                  doc (Span_relation.cardinal got) (Span_relation.cardinal expected))
            [ ("defined", defined); ("inline", inline) ])
        [ "a"; "^"; "]"; "\\"; "!"; "-"; "z"; "b"; "," ])
    [ {|!x{[\^a]}|}; {|!x{[\]a]}|}; {|!x{[\\a]}|}; {|!x{[!\-z]}|} ]

let registry_docs () =
  let r = registry () in
  let bytes, _nodes = Registry.load_doc r ~store:"s" ~doc:"d" ~text:"abab" in
  check Alcotest.int "bytes" 4 bytes;
  let gauge = Limits.unlimited () in
  check Alcotest.string "decompressed" "abab" (Registry.doc_text r ~gauge ~store:"s" ~doc:"d");
  check Alcotest.string "cached" "abab" (Registry.doc_text r ~gauge ~store:"s" ~doc:"d");
  check Alcotest.int "one decompression" 1 (Registry.doc_cache_stats r).Registry.misses;
  (* reloading the same name must serve the new text, not stale cache *)
  ignore (Registry.load_doc r ~store:"s" ~doc:"d" ~text:"bbbb");
  check Alcotest.string "reload refreshes" "bbbb" (Registry.doc_text r ~gauge ~store:"s" ~doc:"d");
  (match Registry.load_doc r ~store:"s" ~doc:"e" ~text:"" with
  | _ -> Alcotest.fail "empty doc must fail"
  | exception Limits.Spanner_error (Limits.Eval_failure _) -> ());
  let c = Registry.counts r in
  check Alcotest.int "stores" 1 c.Registry.stores;
  check Alcotest.int "docs" 1 c.Registry.docs

let registry_load_path_generation () =
  (* LOAD PATH installs a brand-new Doc_db whose root ids restart
     from zero, so a reloaded document can collide with the replaced
     snapshot's cached (store, doc, id): the per-store generation in
     the text-cache key is what keeps stale text from serving, and the
     per-entry gate memo what keeps a stale native decision from
     routing it *)
  let r = registry () in
  let write_db db =
    let path = Filename.temp_file "spanner-slpdb" ".slpdb" in
    Serialize.write_file db path;
    path
  in
  let write text =
    let db = Doc_db.create () in
    ignore (Doc_db.add_string db "d" text);
    write_db db
  in
  (* hand-built "d" roots with equal ids: a doubling chain, (ab)^64 in
     9 nodes, and a comb of the same 9 nodes deriving only 10 bytes *)
  let write_built grow =
    let db = Doc_db.create () in
    let st = Doc_db.store db in
    let a = Slp.leaf st 'a' and b = Slp.leaf st 'b' in
    let root = ref (Slp.pair st a b) in
    for i = 1 to 6 do
      root := grow st !root (if i mod 2 = 1 then a else b)
    done;
    Doc_db.add db "d" !root;
    (write_db db, Slp.to_string st !root)
  in
  (* same length and structure: both snapshots give "d" the same id *)
  let p1 = write "aaaa" and p2 = write "bbbb" in
  let (p3, _), (p4, comb_text) =
    ( write_built (fun st n _ -> Slp.pair st n n),
      write_built (fun st n leaf -> Slp.pair st n leaf) )
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2; p3; p4 ])
    (fun () ->
      let gauge = Limits.unlimited () in
      check Alcotest.int "one doc" 1 (Registry.load_path r ~store:"s" ~path:p1);
      check Alcotest.string "first snapshot" "aaaa"
        (Registry.doc_text r ~gauge ~store:"s" ~doc:"d");
      check Alcotest.int "reloaded" 1 (Registry.load_path r ~store:"s" ~path:p2);
      check Alcotest.string "reload must not serve stale text" "bbbb"
        (Registry.doc_text r ~gauge ~store:"s" ~doc:"d");
      check Alcotest.int "roots collide across the two files"
        (Doc_db.find (Serialize.read_file p3) "d")
        (Doc_db.find (Serialize.read_file p4) "d");
      ignore (Registry.load_path r ~store:"s" ~path:p3);
      check Alcotest.bool "compressible d goes native" true
        (native_relation r ~store:"s" ~doc:"d" <> None);
      ignore (Registry.load_path r ~store:"s" ~path:p4);
      check Alcotest.bool "incompressible d under the same name falls back" true
        (native_relation r ~store:"s" ~doc:"d" = None);
      let text = Registry.doc_text r ~gauge ~store:"s" ~doc:"d" in
      check Alcotest.string "fallback reads the new text" comb_text text;
      check Alcotest.bool "and answers it" true
        (Span_relation.equal
           (Cursor.to_relation
              (Optimizer.cursor (Registry.plan r (Protocol.Inline pairs_body)) text))
           (Compiled.eval pairs_ct comb_text)))

let registry_native_cursor () =
  let r = registry () in
  let gauge () = Limits.unlimited () in
  (* a highly repetitive document compresses far past the break-even
     ratio, so the query must go native — no decompression *)
  let big = rep "ab" 512 in
  ignore (Registry.load_doc r ~store:"s" ~doc:"big" ~text:big);
  ignore (Registry.load_doc r ~store:"s" ~doc:"tiny" ~text:"abab");
  let normalized, plan = Registry.plan_normalized r (Protocol.Inline pairs_body) in
  let native doc =
    Registry.native_cursor r ~gauge:(gauge ()) ~normalized ~store:"s" ~doc plan
  in
  let gate () =
    let g = Registry.gate_stats r in
    (g.Registry.native, g.Registry.fallback)
  in
  let pair_int = Alcotest.(pair int int) in
  check pair_int "nothing decided before the first query" (0, 0) (gate ());
  (match native "big" with
  | None -> Alcotest.fail "compressible doc must take the native path"
  | Some cursor ->
      let oracle =
        Cursor.to_relation
          (Optimizer.cursor plan (Registry.doc_text r ~gauge:(gauge ()) ~store:"s" ~doc:"big"))
      in
      check Alcotest.bool "native stream ≡ decompressed stream" true
        (Span_relation.equal (Cursor.to_relation cursor) oracle);
      check Alcotest.int "512 matches" 512 (Span_relation.cardinal oracle));
  check Alcotest.int "engine cache filled once" 1
    (Registry.engine_cache_stats r).Registry.misses;
  (match native "big" with
  | None -> Alcotest.fail "native path must stay available"
  | Some cursor -> ignore (Cursor.to_list cursor));
  check Alcotest.int "repeat query hits the engine cache" 1
    (Registry.engine_cache_stats r).Registry.hits;
  check pair_int "one root decided, once" (1, 0) (gate ());
  (* the tiny document barely compresses: decompressed-text fallback,
     on the first query and on every repeat *)
  check Alcotest.bool "incompressible doc falls back" true (native "tiny" = None);
  check Alcotest.bool "and keeps falling back" true (native "tiny" = None);
  check pair_int "fallback decided once" (1, 1) (gate ());
  (* LOAD DOC refreshes the snapshot without bumping the generation:
     the node count in the engine key must keep the old engine from
     serving a root it cannot see *)
  let big2 = rep "ba" 512 in
  ignore (Registry.load_doc r ~store:"s" ~doc:"big2" ~text:big2);
  (match native "big2" with
  | None -> Alcotest.fail "refreshed snapshot must still go native"
  | Some cursor ->
      let oracle =
        Cursor.to_relation
          (Optimizer.cursor plan (Registry.doc_text r ~gauge:(gauge ()) ~store:"s" ~doc:"big2"))
      in
      check Alcotest.bool "post-reload native stream is fresh" true
        (Span_relation.equal (Cursor.to_relation cursor) oracle));
  (* the memo survives LOAD DOC: nodes are append-only, so "big"'s
     root still derives the same text from the new snapshot *)
  check Alcotest.bool "big still native after the refresh" true (native "big" <> None);
  check pair_int "refresh decided only the new root" (2, 1) (gate ())

let registry_engine_per_shard () =
  (* two same-shape documents over swapped letters pack into two
     shards with equal node counts; an engine key without the shard
     index answers the second shard from the first shard's matrices *)
  with_temp_dir @@ fun dir ->
  let t0 = rep "ab" 256 in
  let t1 = String.map (function 'a' -> 'b' | _ -> 'a') t0 in
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "d0" t0);
  ignore (Doc_db.add_string db "d1" t1);
  let path = Filename.concat dir "corpus" in
  ignore (Corpus.pack db ~shards:2 path);
  let shards = Corpus.shards (Corpus.open_path path) in
  check Alcotest.int "shards hold equally many nodes" (Arena.node_count shards.(0))
    (Arena.node_count shards.(1));
  let r = registry () in
  check Alcotest.int "both documents loaded" 2 (Registry.load_path r ~store:"p" ~path);
  List.iter
    (fun (doc, text) ->
      match native_relation r ~store:"p" ~doc with
      | None -> Alcotest.fail (doc ^ " must take the native path")
      | Some rel ->
          check Alcotest.bool (doc ^ " ≡ Compiled.eval on its text") true
            (Span_relation.equal rel (Compiled.eval pairs_ct text)))
    [ ("d0", t0); ("d1", t1) ];
  check Alcotest.int "one engine per shard" 2 (Registry.engine_cache_stats r).Registry.misses

let registry_corrupt_arena_not_memoized () =
  (* node-column damage passes the O(1) open and surfaces as a typed
     error during the gate's walk; a raising walk decides nothing, so
     every later request gets the same error, not a memoized route *)
  with_temp_dir @@ fun dir ->
  let db = Doc_db.create () in
  let root = Doc_db.add_string db "d" (rep "ab" 256) in
  let path = Filename.concat dir "d.slpar" in
  Arena.write_file (Doc_db.store db) [ ("d", root) ] path;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let damaged = Bytes.of_string bytes in
  (* byte 1 of node 0's left word: the leaf byte leaves [0, 255] *)
  Bytes.set damaged 65 (Char.chr (Char.code (Bytes.get damaged 65) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc damaged);
  let r = registry () in
  ignore (Registry.load_path r ~store:"a" ~path);
  for attempt = 1 to 3 do
    match native_relation r ~store:"a" ~doc:"d" with
    | _ -> Alcotest.failf "attempt %d: corrupt columns must raise" attempt
    | exception Limits.Spanner_error (Limits.Corrupt_input _) -> ()
  done;
  let g = Registry.gate_stats r in
  check Alcotest.(pair int int) "nothing memoized" (0, 0)
    (g.Registry.native, g.Registry.fallback)

(* Random documents on both sides of ratio 2, loaded three ways (LOAD
   DOC into a heap store, an SLPDB LOAD PATH, a packed LOAD PATH over
   1–3 shards): on the first query and on the repeats the memo
   serves, the registry goes native exactly when the independent
   reachable-size oracle says so, and every native answer is the
   Compiled.eval answer. *)
let gate_text_gen =
  let open QCheck2.Gen in
  let ab = map (fun b -> if b then 'a' else 'b') bool in
  oneof
    [
      (let* unit = string_size ~gen:ab (int_range 1 5) and* k = int_range 2 120 in
       return (rep unit k));
      string_size ~gen:ab (int_range 1 80);
      (let* unit = string_size ~gen:ab (int_range 1 3)
       and* k = int_range 2 40
       and* tail = string_size ~gen:ab (int_range 1 40) in
       return (rep unit k ^ tail));
    ]

let gate_memo_differential () =
  let sides = Array.make 2 0 in
  let prop (texts, shards) =
    with_temp_dir @@ fun dir ->
    let docs = List.mapi (fun i t -> (Printf.sprintf "d%d" i, t)) texts in
    let db = Doc_db.create () in
    List.iter (fun (n, t) -> ignore (Doc_db.add_string db n t)) docs;
    let slpdb = Filename.concat dir "db.slpdb" and packed = Filename.concat dir "corpus" in
    Serialize.write_file db slpdb;
    ignore (Corpus.pack db ~shards packed);
    let r = registry () in
    List.iter (fun (n, t) -> ignore (Registry.load_doc r ~store:"h" ~doc:n ~text:t)) docs;
    ignore (Registry.load_path r ~store:"f" ~path:slpdb);
    ignore (Registry.load_path r ~store:"p" ~path:packed);
    List.for_all
      (fun (doc, text) ->
        let want = compressible text in
        let oracle = Compiled.eval pairs_ct text in
        sides.(Bool.to_int want) <- sides.(Bool.to_int want) + 1;
        List.for_all
          (fun store ->
            List.for_all
              (fun _ ->
                match native_relation r ~store ~doc with
                | None -> not want
                | Some rel -> want && Span_relation.equal rel oracle)
              [ 1; 2; 3 ])
          [ "h"; "f"; "p" ])
      docs
  in
  QCheck2.Test.check_exn
    (QCheck2.Test.make ~name:"gate memo ≡ reachable-size oracle" ~count:40
       ~print:(fun (texts, shards) ->
         Printf.sprintf "shards=%d [%s]" shards (String.concat "; " texts))
       QCheck2.Gen.(pair (list_size (int_range 2 5) gate_text_gen) (int_range 1 3))
       prop);
  check Alcotest.bool "some documents went native" true (sides.(1) > 0);
  check Alcotest.bool "some documents fell back" true (sides.(0) > 0)

(* Two domains query shared roots through native_cursor and drain the
   cursors while a systhread LOAD DOCs new documents into the same
   store (new snapshots, new engine keys); at the end both domains
   miss on one fresh root at once.  Every answer is checked against
   the single-domain Compiled.eval oracle. *)
let registry_two_domain_stress () =
  let r = registry () in
  let shared =
    [|
      ("s0", rep "ab" 200); ("s1", rep "abb" 150); ("s2", rep "ba" 180); ("s3", rep "aab" 120);
    |]
  in
  let later =
    Array.init 6 (fun i ->
        (Printf.sprintf "n%d" i, rep (if i mod 2 = 0 then "ab" else "bba") (100 + (17 * i))))
  in
  let fresh = ("fresh", rep "abab" 90 ^ "b") in
  let oracle = Hashtbl.create 16 in
  Array.iter
    (fun (n, t) -> Hashtbl.replace oracle n (compressible t, Compiled.eval pairs_ct t))
    (Array.concat [ shared; later; [| fresh |] ]);
  Array.iter (fun (n, t) -> ignore (Registry.load_doc r ~store:"s" ~doc:n ~text:t)) shared;
  let published = Atomic.make 0 and fresh_ready = Atomic.make false in
  let arrived = Atomic.make 0 and wrong = Atomic.make 0 and answered = Atomic.make 0 in
  let query doc =
    let want, expected = Hashtbl.find oracle doc in
    (match native_relation r ~store:"s" ~doc with
    | None -> if want then Atomic.incr wrong
    | Some rel -> if not (want && Span_relation.equal rel expected) then Atomic.incr wrong);
    Atomic.incr answered
  in
  let worker d () =
    for i = 0 to 59 do
      let k = Atomic.get published in
      let pool = Array.append shared (Array.sub later 0 k) in
      query (fst pool.(((i * 7) + d) mod Array.length pool))
    done;
    Atomic.incr arrived;
    while not (Atomic.get fresh_ready && Atomic.get arrived = 2) do
      Domain.cpu_relax ()
    done;
    query (fst fresh)
  in
  let loader =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i (n, t) ->
            ignore (Registry.load_doc r ~store:"s" ~doc:n ~text:t);
            Atomic.set published (i + 1);
            Thread.delay 0.002)
          later;
        while Atomic.get arrived < 2 do
          Thread.delay 0.001
        done;
        ignore (Registry.load_doc r ~store:"s" ~doc:(fst fresh) ~text:(snd fresh));
        Atomic.set fresh_ready true)
      ()
  in
  let domains = List.map (fun d -> Domain.spawn (worker d)) [ 0; 1 ] in
  List.iter Domain.join domains;
  Thread.join loader;
  check Alcotest.int "every answer checked" 122 (Atomic.get answered);
  check Alcotest.int "no wrong answer" 0 (Atomic.get wrong);
  check Alcotest.bool "shared roots and the fresh root decided native" true
    ((Registry.gate_stats r).Registry.native >= Array.length shared + 1)

let registry_limits_clamp () =
  (* per-request overrides may only tighten the server defaults *)
  let defaults = { Limits.fuel = 100; time_ms = max_int; max_states = 50; max_tuples = max_int } in
  let r = Registry.create ~defaults () in
  let opts =
    {
      Protocol.default_opts with
      Protocol.fuel = Some 1_000_000;
      deadline_ms = Some 500;
      max_states = Some 10;
      max_tuples = None;
    }
  in
  let eff = Registry.effective_limits r opts in
  check Alcotest.int "override cannot raise fuel" 100 eff.Limits.fuel;
  check Alcotest.int "override tightens unbounded time" 500 eff.Limits.time_ms;
  check Alcotest.int "override tightens states" 10 eff.Limits.max_states;
  check Alcotest.int "no override keeps default" max_int eff.Limits.max_tuples

(* ------------------------------------------------------------------ *)
(* In-process server over a real unix socket *)

let with_server f =
  let path = Printf.sprintf "/tmp/spanner-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000) in
  let config =
    { (Server.default_config (Server.Unix_socket path)) with Server.workers = Some 2; queue = 8 }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.wait server)
    (fun () -> f (Server.Unix_socket path))

let server_end_to_end () =
  with_server (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let req payload = Client.request c payload in
      (match req "DEFINE q\n[ab]*!x{ab}[ab]*" with
      | [ one ] -> check Alcotest.string "define ok" "OK defined q schema={x} fused=1" one
      | fs -> Alcotest.fail (String.concat "|" fs));
      (match req "LOAD s DOC d\nabab" with
      | [ one ] -> check Alcotest.bool "load ok" true (String.length one > 2 && String.sub one 0 2 = "OK")
      | _ -> Alcotest.fail "load: expected one frame");
      (match req "QUERY q s d" with
      | header :: rest ->
          check Alcotest.string "stream header" "OK stream {x}" header;
          check Alcotest.string "terminal" "END 2" (List.nth rest (List.length rest - 1))
      | [] -> Alcotest.fail "query: empty response");
      (match req "QUERY q s d format=count" with
      | [ one ] -> check Alcotest.string "count" "OK count 2" one
      | _ -> Alcotest.fail "count: expected one frame");
      (* per-request budget failure surfaces as ERR 3, connection stays usable *)
      (match req "QUERY q s d fuel=3" with
      | frames ->
          check Alcotest.(option int) "budget is ERR 3" (Some 3)
            (List.nth frames (List.length frames - 1) |> Client.err_code));
      (match req "QUERY nosuch s d" with
      | [ one ] -> check Alcotest.(option int) "unknown query is ERR 1" (Some 1) (Client.err_code one)
      | _ -> Alcotest.fail "unknown: expected one frame");
      match req "STATS" with
      | [ one ] ->
          check Alcotest.bool "stats ok" true (String.length one >= 8 && String.sub one 0 8 = "OK stats")
      | _ -> Alcotest.fail "stats: expected one frame")

let server_concurrent_clients () =
  with_server (fun addr ->
      (let c = Client.connect addr in
       ignore (Client.request c "DEFINE q\n[ab]*!x{ab}[ab]*");
       ignore (Client.request c "LOAD s DOC d\nabababab");
       Client.close c);
      let errors = Atomic.make 0 in
      let client_thread _ =
        Thread.create
          (fun () ->
            try
              let c = Client.connect addr in
              for _ = 1 to 20 do
                match Client.request c "QUERY q s d format=count" with
                | [ "OK count 4" ] -> ()
                | _ -> Atomic.incr errors
              done;
              Client.close c
            with _ -> Atomic.incr errors)
          ()
      in
      let threads = List.init 8 client_thread in
      List.iter Thread.join threads;
      check Alcotest.int "no client saw a wrong answer" 0 (Atomic.get errors))

let server_shutdown_verb () =
  let path = Printf.sprintf "/tmp/spanner-test-sd-%d.sock" (Unix.getpid ()) in
  let config = { (Server.default_config (Server.Unix_socket path)) with Server.workers = Some 1 } in
  let server = Server.start config in
  let c = Client.connect (Server.Unix_socket path) in
  (match Client.request c "SHUTDOWN" with
  | [ one ] -> check Alcotest.string "ack" "OK shutting down" one
  | _ -> Alcotest.fail "expected one frame");
  Client.close c;
  Server.wait server;
  check Alcotest.bool "socket removed" false (Sys.file_exists path)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          tc "frame round-trip" `Quick frame_roundtrip_basic;
          tc "hostile frames" `Quick frame_hostile;
          QCheck_alcotest.to_alcotest qcheck_frames;
          QCheck_alcotest.to_alcotest qcheck_requests;
        ] );
      ( "scheduler",
        [
          tc "runs jobs" `Quick scheduler_runs_jobs;
          tc "sheds at capacity" `Quick scheduler_sheds;
          tc "propagates exceptions" `Quick scheduler_propagates_exn;
        ] );
      ( "registry",
        [
          tc "define and plan cache" `Quick registry_define_and_plan;
          tc "class bodies survive normalization" `Quick
            registry_class_bodies_survive_normalization;
          tc "stores and doc cache" `Quick registry_docs;
          tc "load_path bumps generation" `Quick registry_load_path_generation;
          tc "native compressed-domain cursor" `Quick registry_native_cursor;
          tc "engine cache keys by shard" `Quick registry_engine_per_shard;
          tc "corrupt arena never memoized" `Quick registry_corrupt_arena_not_memoized;
          tc "gate memo differential" `Quick gate_memo_differential;
          tc "two-domain stress" `Quick registry_two_domain_stress;
          tc "limits clamp to defaults" `Quick registry_limits_clamp;
        ] );
      ( "server",
        [
          tc "end to end" `Quick server_end_to_end;
          tc "concurrent clients" `Quick server_concurrent_clients;
          tc "shutdown verb" `Quick server_shutdown_verb;
        ] );
    ]
