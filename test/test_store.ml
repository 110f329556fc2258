(* The zero-copy arena store (SLPAR1/SLPMF1, lib/store):

   - differential: for random builder-built and CDE-edited document
     databases, pack → open gives a frozen view equivalent to
     Slp.freeze on every accessor (structure walk, lengths,
     decompression) and on full Slp_spanner evaluation — including
     Plan.relations over the arena as a one-shard corpus;
   - sharded corpora: pack --shards N round-trips through the
     manifest, routes documents to their owning shard, and rejects
     overlapping shards;
   - hostile files: truncated headers, checksum mismatches,
     out-of-range offsets and malformed manifests all fail with a
     typed Corrupt_input — at open for header/table damage, at
     validate or first access for body damage;
   - the streaming SLPDB channel reader matches the in-memory
     reader. *)

open Spanner_core
module Limits = Spanner_util.Limits
module Slp = Spanner_slp.Slp
module Builder = Spanner_slp.Builder
module Balance = Spanner_slp.Balance
module Cde = Spanner_slp.Cde
module Doc_db = Spanner_slp.Doc_db
module Serialize = Spanner_slp.Serialize
module Slp_spanner = Spanner_slp.Slp_spanner
module Arena = Spanner_store.Arena
module Manifest = Spanner_store.Manifest
module Corpus = Spanner_store.Corpus
module Plan = Spanner_engine.Plan

let check = Alcotest.check
let tc = Alcotest.test_case

let corrupt f =
  match f () with
  | _ -> Alcotest.fail "expected Corrupt_input"
  | exception Limits.Spanner_error (Limits.Corrupt_input _) -> ()

let with_tmp_dir f =
  let dir = Filename.temp_file "spanner_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Generators: a database of random documents under random builders,
   optionally reshaped by CDE edits *)

let builders =
  [|
    (fun store s -> Slp.of_string store s);
    (fun store s -> Builder.lz78 store s);
    (fun store s -> Builder.balanced_of_string store s);
    (fun store s -> Balance.rebalance store (Builder.lz78 store s));
  |]

type case = {
  docs : (string * int) list;  (* doc text, builder index *)
  edits : (int * int * int) list;  (* op tag, two position seeds *)
}

let gen_case =
  let open QCheck2.Gen in
  let doc = string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 30) in
  let* n = 1 -- 4 in
  let* texts = list_size (return n) (pair doc (0 -- (Array.length builders - 1))) in
  let* edits = list_size (0 -- 2) (triple (0 -- 3) (0 -- 1000) (0 -- 1000)) in
  return { docs = texts; edits }

let build_db case =
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  List.iteri
    (fun i (text, b) -> Doc_db.add db (Printf.sprintf "d%d" i) (builders.(b) store text))
    case.docs;
  (* CDE edits go through Balance.concat, which requires balanced
     operands — rebalance every doc before editing *)
  if case.edits <> [] then
    List.iteri
      (fun i _ ->
        let name = Printf.sprintf "d%d" i in
        Doc_db.add db name (Balance.rebalance store (Doc_db.find db name)))
      case.docs;
  (* edits re-designate d0, clamping positions into range *)
  List.iter
    (fun (op, p1, p2) ->
      let id = Doc_db.find db "d0" in
      let n = Slp.len store id in
      let i = 1 + (p1 mod n) in
      let j = i + (p2 mod (n - i + 1)) in
      let other = Printf.sprintf "d%d" (p2 mod List.length case.docs) in
      let e =
        match op with
        | 0 -> Cde.Concat (Cde.Doc "d0", Cde.Doc other)
        | 1 -> Cde.Extract (Cde.Doc "d0", i, j)
        | 2 -> Cde.Insert (Cde.Doc "d0", Cde.Doc other, i)
        | _ -> Cde.Copy (Cde.Doc "d0", i, j, i)
      in
      ignore (Cde.materialize db "d0" e))
    case.edits;
  db

let print_case c =
  String.concat "; "
    (List.mapi (fun i (t, b) -> Printf.sprintf "d%d=%S(b%d)" i t b) c.docs)
  ^ Printf.sprintf " edits=%d" (List.length c.edits)

let formulas =
  List.map Regex_formula.parse
    [ ".*!x{ab}.*"; ".*!x{a+}b.*"; ".*!x{!y{a}b*}.*"; ".*!x{(a|bc)+}.*" ]

(* structural equality modulo the pack renumbering *)
let same_structure store id_store arena_fz id_arena =
  let memo = Hashtbl.create 64 in
  let rec go a b =
    match Hashtbl.find_opt memo (a, b) with
    | Some r -> r
    | None ->
        let r =
          Slp.len store a = Slp.frozen_len arena_fz b
          &&
          match (Slp.node store a, Slp.frozen_node arena_fz b) with
          | Slp.Leaf c, Slp.Leaf c' -> c = c'
          | Slp.Pair (l, r), Slp.Pair (l', r') -> go l l' && go r r'
          | _ -> false
        in
        Hashtbl.add memo (a, b) r;
        r
  in
  go id_store id_arena

let prop_arena_equals_freeze =
  QCheck2.Test.make ~name:"pack→open arena ≡ Slp.freeze on every accessor" ~count:200
    gen_case ~print:print_case (fun case ->
      let db = build_db case in
      let store = Doc_db.store db in
      let docs = List.map (fun n -> (n, Doc_db.find db n)) (Doc_db.names db) in
      let a = Arena.of_string (Arena.pack_bytes store docs) in
      Arena.validate a;
      let fz = Arena.frozen_view a in
      Arena.node_count a = Slp.frozen_size fz
      && List.for_all
           (fun (name, id) ->
             match Arena.find a name with
             | None -> false
             | Some root ->
                 same_structure store id fz root
                 && Slp.to_string store id = Slp.frozen_to_string fz root)
           docs)

let prop_arena_eval_equals_heap =
  QCheck2.Test.make ~name:"Slp_spanner over arena view ≡ over Slp.freeze" ~count:100
    gen_case ~print:print_case (fun case ->
      let db = build_db case in
      let store = Doc_db.store db in
      let docs = List.map (fun n -> (n, Doc_db.find db n)) (Doc_db.names db) in
      let a = Arena.of_string (Arena.pack_bytes store docs) in
      let fz = Arena.frozen_view a in
      List.for_all
        (fun f ->
          let ct = Compiled.of_formula f in
          let heap = Slp_spanner.of_compiled ct store in
          let flat = Slp_spanner.of_frozen ct fz in
          let arena_roots =
            Array.of_list (List.map (fun (n, _) -> Option.get (Arena.find a n)) docs)
          in
          let planned =
            Plan.relations
              (Plan.make ~force:`Compressed ct (Plan.Packed (Corpus.of_arenas [| a |])))
          in
          List.for_all
            (fun (i, (name, id)) ->
              let expected = Slp_spanner.to_relation heap id in
              Span_relation.equal expected
                (Slp_spanner.to_relation flat arena_roots.(i))
              &&
              match List.assoc_opt name (Array.to_list planned) with
              | Some (Ok r) -> Span_relation.equal expected r
              | _ -> false)
            (List.mapi (fun i d -> (i, d)) docs))
        formulas)

(* ------------------------------------------------------------------ *)
(* Sharded corpora *)

let sample_db () =
  let db = Doc_db.create () in
  List.iter
    (fun (n, t) -> ignore (Doc_db.add_string db n t))
    [
      ("alpha", "abcabcabc");
      ("beta", "aaaaabbbbb");
      ("gamma", "cabcabca");
      ("delta", "abababab");
      ("eps", "ccccc");
    ];
  db

let corpus_round_trip () =
  let db = sample_db () in
  List.iter
    (fun shards ->
      with_tmp_dir (fun dir ->
          let path = Filename.concat dir "corpus" in
          let written = Corpus.pack db ~shards path in
          check Alcotest.int "written files" (if shards = 1 then 1 else shards + 1)
            (List.length written);
          let c = Corpus.open_path path in
          check Alcotest.int "shards" shards (Corpus.shard_count c);
          check Alcotest.int "docs" 5 (Corpus.doc_count c);
          check Alcotest.int "total_len" (Doc_db.total_len db) (Corpus.total_len c);
          Array.iter (fun a -> Arena.validate a) (Corpus.shards c);
          List.iter
            (fun name ->
              match Corpus.find c name with
              | None -> Alcotest.failf "document %s lost" name
              | Some (si, root) ->
                  let a = (Corpus.shards c).(si) in
                  check Alcotest.string
                    (Printf.sprintf "%s text (%d shards)" name shards)
                    (Slp.to_string (Doc_db.store db) (Doc_db.find db name))
                    (Slp.frozen_to_string (Arena.frozen_view a) root))
            (Doc_db.names db)))
    [ 1; 2; 3; 5; 7 ]

let corpus_overlap_rejected () =
  let db = sample_db () in
  let store = Doc_db.store db in
  let docs = [ ("alpha", Doc_db.find db "alpha") ] in
  let a1 = Arena.of_string (Arena.pack_bytes store docs) in
  let a2 = Arena.of_string (Arena.pack_bytes store docs) in
  corrupt (fun () -> Corpus.of_arenas [| a1; a2 |])

let manifest_hostile () =
  check Alcotest.(list string) "round trip" [ "a.slpar"; "b.slpar" ]
    (Manifest.of_string (Manifest.to_string [ "a.slpar"; "b.slpar" ]));
  corrupt (fun () -> Manifest.of_string "");
  corrupt (fun () -> Manifest.of_string "SLPDB1\nshard a");
  corrupt (fun () -> Manifest.of_string "SLPMF1\n");
  corrupt (fun () -> Manifest.of_string "SLPMF1\nshard a\nshard a\n");
  corrupt (fun () -> Manifest.of_string "SLPMF1\ngarbage line\n")

(* ------------------------------------------------------------------ *)
(* Hostile arenas *)

let valid_arena_bytes () =
  let db = sample_db () in
  Arena.pack_bytes (Doc_db.store db)
    (List.map (fun n -> (n, Doc_db.find db n)) (Doc_db.names db))

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  Bytes.to_string b

let arena_hostile_open () =
  let v = valid_arena_bytes () in
  (* truncated header *)
  corrupt (fun () -> Arena.of_string (String.sub v 0 32));
  corrupt (fun () -> Arena.of_string "");
  (* misaligned *)
  corrupt (fun () -> Arena.of_string (v ^ "xyz"));
  (* bad magic *)
  corrupt (fun () -> Arena.of_string (flip v 0));
  (* header field damage → header checksum mismatch *)
  corrupt (fun () -> Arena.of_string (flip v 17));
  (* truncation to an aligned size → geometry mismatch *)
  corrupt (fun () -> Arena.of_string (String.sub v 0 (String.length v - 8)))

let arena_hostile_body () =
  let v = valid_arena_bytes () in
  let a = Arena.of_string v in
  let n = Arena.node_count a and d = Array.length (Arena.docs a) in
  (* doc-table damage is caught at open: flip a root word *)
  let roots_byte = 8 * (8 + (3 * n) + 256) in
  corrupt (fun () -> Arena.of_string (flip v (roots_byte + 2)));
  (* name-offset damage: point a name outside the blob *)
  let noff_byte = 8 * (8 + (3 * n) + 256 + d) in
  corrupt (fun () -> Arena.of_string (flip v (noff_byte + 3)));
  (* node-column damage is NOT caught at open (O(1) load)… *)
  let left_byte = 8 * 8 in
  let damaged = Arena.of_string (flip v (left_byte + 1)) in
  (* …but the flat accessors and validate both catch it *)
  corrupt (fun () -> Arena.validate damaged);
  let fz = Arena.frozen_view damaged in
  let survives_or_typed id =
    match Slp.frozen_node fz id with
    | _ -> ()
    | exception Limits.Spanner_error (Limits.Corrupt_input _) -> ()
  in
  for id = 0 to Arena.node_count damaged - 1 do
    survives_or_typed id
  done;
  (* body checksum alone (flip a len word to another plausible value) *)
  let len_byte = 8 * (8 + (2 * n)) in
  let subtle = flip v (len_byte + 1) in
  corrupt (fun () -> Arena.validate (Arena.of_string subtle))

(* A consistent image whose one wrapping length the checksums cover:
   a 61-fold doubling of "a" (length 2^61) paired with "b", re-pointed
   at the doubling twice with the length 2^61 + 2^61 wraps to.  Every
   other check passes, so only the exact length sum can reject it. *)
let arena_wrapping_length () =
  let store = Slp.create_store () in
  let rec double id k = if k = 0 then id else double (Slp.pair store id id) (k - 1) in
  let top = double (Slp.leaf store 'a') 61 in
  let v = Arena.pack_bytes store [ ("d", Slp.pair store top (Slp.leaf store 'b')) ] in
  let b = Bytes.of_string v in
  let word w = Int64.to_int (Bytes.get_int64_le b (8 * w)) in
  let set_word w x = Bytes.set_int64_le b (8 * w) (Int64.of_int x) in
  let n = word 2 in
  let w_right = 8 + n and w_len = 8 + (2 * n) in
  let find len = List.find (fun i -> word (w_len + i) = len) (List.init n Fun.id) in
  let x = find ((1 lsl 61) + 1) in
  set_word (w_right + x) (find (1 lsl 61));
  set_word (w_len + x) ((1 lsl 61) + (1 lsl 61));
  (* re-seal: FNV-1a over the body (word 5), then over words 0..6 (word 7) *)
  let fnv lo hi =
    let h = ref 0x3bf29ce484222325 in
    for i = lo to hi - 1 do
      h := (!h lxor Char.code (Bytes.get b i)) * 0x100000001b3 land max_int
    done;
    !h
  in
  set_word 5 (fnv 64 (Bytes.length b));
  set_word 7 (fnv 0 56);
  corrupt (fun () -> Arena.validate (Arena.of_string (Bytes.to_string b)))

(* Two documents of length 2^61 sum to 2^62, one past max_int: every
   total over them is a typed error, and the planner never sees a
   wrapped byte count. *)
let total_len_past_max_int () =
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  let rec double id k = if k = 0 then id else double (Slp.pair store id id) (k - 1) in
  let docs = [ ("a", double (Slp.leaf store 'a') 61); ("b", double (Slp.leaf store 'b') 61) ] in
  List.iter (fun (name, id) -> Doc_db.add db name id) docs;
  let overflows what f =
    match f () with
    | n -> Alcotest.failf "%s: expected a typed error, got %d" what n
    | exception Limits.Spanner_error (Limits.Eval_failure _) -> ()
  in
  overflows "Doc_db.total_len" (fun () -> Doc_db.total_len db);
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{ab}.*") in
  overflows "Plan.make over the database" (fun () ->
      ignore (Plan.make ct (Plan.Db db));
      0);
  let a = Arena.of_string (Arena.pack_bytes store docs) in
  overflows "Arena.total_len" (fun () -> Arena.total_len a);
  overflows "Corpus.total_len" (fun () -> Corpus.total_len (Corpus.of_arenas [| a |]))

let arena_file_round_trip () =
  with_tmp_dir (fun dir ->
      let db = sample_db () in
      let docs = List.map (fun n -> (n, Doc_db.find db n)) (Doc_db.names db) in
      let path = Filename.concat dir "one.slpar" in
      Arena.write_file (Doc_db.store db) docs path;
      let a = Arena.openfile path in
      Arena.validate a;
      check Alcotest.int "mapped = file size" (Unix.stat path).Unix.st_size
        (Arena.mapped_bytes a);
      check Alcotest.bool "resident after touch" true (Arena.resident_bytes a >= 0);
      List.iter
        (fun (name, id) ->
          check Alcotest.string name
            (Slp.to_string (Doc_db.store db) id)
            (Slp.frozen_to_string (Arena.frozen_view a) (Option.get (Arena.find a name))))
        docs;
      (* byte→leaf table resolves every character of the corpus *)
      String.iter
        (fun c ->
          match Arena.leaf a c with
          | Some id -> (
              match Slp.frozen_node (Arena.frozen_view a) id with
              | Slp.Leaf c' -> check Alcotest.char "leaf" c c'
              | _ -> Alcotest.fail "byte table points at a pair")
          | None -> Alcotest.fail "missing leaf")
        "abc")

(* ------------------------------------------------------------------ *)
(* Streaming SLPDB channel reader *)

let read_channel_matches () =
  with_tmp_dir (fun dir ->
      let db = sample_db () in
      let path = Filename.concat dir "db.slpdb" in
      Serialize.write_file db path;
      let via_file = Serialize.read_file path in
      let via_string =
        Serialize.read_string (In_channel.with_open_bin path In_channel.input_all)
      in
      List.iter2
        (fun n n' ->
          check Alcotest.string "name" n n';
          check Alcotest.string "text"
            (Slp.to_string (Doc_db.store via_file) (Doc_db.find via_file n))
            (Slp.to_string (Doc_db.store via_string) (Doc_db.find via_string n')))
        (Doc_db.names via_file) (Doc_db.names via_string);
      (* a truncated file still fails typed through the buffered path *)
      let whole = In_channel.with_open_bin path In_channel.input_all in
      let cut = Filename.concat dir "cut.slpdb" in
      Out_channel.with_open_bin cut (fun oc ->
          Out_channel.output_string oc (String.sub whole 0 (String.length whole - 3)));
      corrupt (fun () -> Serialize.read_file cut);
      (* and an unseekable source (a pipe) parses identically *)
      let r, w = Unix.pipe () in
      let writer =
        Thread.create
          (fun () ->
            let oc = Unix.out_channel_of_descr w in
            Out_channel.output_string oc whole;
            Out_channel.close oc)
          ()
      in
      let ic = Unix.in_channel_of_descr r in
      let via_pipe = Serialize.read_channel ic in
      Thread.join writer;
      In_channel.close ic;
      check
        Alcotest.(list string)
        "pipe names" (Doc_db.names via_file) (Doc_db.names via_pipe))

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "store"
    [
      ("differential", to_alcotest [ prop_arena_equals_freeze; prop_arena_eval_equals_heap ]);
      ( "corpus",
        [
          tc "pack/open round trip, 1..7 shards" `Quick corpus_round_trip;
          tc "overlapping shards rejected" `Quick corpus_overlap_rejected;
          tc "hostile manifests" `Quick manifest_hostile;
        ] );
      ( "hostile",
        [
          tc "header damage fails at open" `Quick arena_hostile_open;
          tc "body damage fails typed at access/validate" `Quick arena_hostile_body;
          tc "a wrapping derived length fails validate" `Quick arena_wrapping_length;
          tc "total lengths past max_int are typed errors" `Quick total_len_past_max_int;
        ] );
      ( "files",
        [
          tc "arena file round trip" `Quick arena_file_round_trip;
          tc "streaming SLPDB reader" `Quick read_channel_matches;
        ] );
    ]
