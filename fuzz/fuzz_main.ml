(* Fuzz harness for every parser/deserializer surface of the library.

   Property: feeding arbitrary bytes to a parser produces a typed,
   documented error or a successful parse — never an uncaught
   exception, a crash, or a hang.  "Typed" means:

   - Spanner_util.Limits.Spanner_error   (the unified error taxonomy)
   - Spanner_fa.Regex.Parse_error        (regex-level syntax errors)
   - Invalid_argument                    (documented validation errors)

   Anything else — raw Failure, Not_found, Out_of_memory,
   Assert_failure, Stack_overflow, array bounds — is a crash and fails
   the run.

   Inputs come from three springs, all driven by the deterministic
   Xoshiro PRNG so a failing run is reproducible from its seed:

   - replay: every checked-in corpus file runs through its target
     first (regression seeds for past crashes);
   - mutation: corpus seeds (plus a freshly serialised SLPDB image)
     mutated by byte flips, insertions, deletions, truncations,
     duplications and splices;
   - generation: random strings over a target-biased alphabet.

   Every parse runs under a small resource budget, so pathological but
   well-formed inputs (state blowups, huge repetitions) surface as
   Limit_exceeded instead of hanging the harness. *)

module X = Spanner_util.Xoshiro
module Limits = Spanner_util.Limits

let budget = Limits.make ~fuel:200_000 ~time_ms:2_000 ~max_states:512 ~max_tuples:20_000 ()

let allowed = function
  | Limits.Spanner_error _ -> true
  | Spanner_fa.Regex.Parse_error _ -> true
  | Invalid_argument _ -> true
  | _ -> false

(* [reparsed ~parse ~print ~same s] parses [s] and checks the printing
   fixpoint print (parse (print x)) = print x: a printed form must
   re-parse, to a term that prints the same and that [same] finds to
   have the same variables and references as [x] (equal strings alone
   miss a name that swallowed the byte after it).  A break is a crash,
   whatever the re-parse raised. *)
let reparsed ~parse ~print ~same s =
  let x = parse s in
  let printed = print x in
  (match parse printed with
  | y ->
      let again = print y in
      if again <> printed then
        failwith (Printf.sprintf "printing is not a fixpoint: %S re-prints as %S" printed again);
      if not (same x y) then
        failwith (Printf.sprintf "printed form %S re-parses with other variables" printed)
  | exception e ->
      failwith (Printf.sprintf "printed form %S does not re-parse: %s" printed (Printexc.to_string e)));
  x

(* The bound (!x) and referenced (&x) names of a term, sorted. *)
let occurrences fold =
  let syn = Spanner_fa.Regex.names ~empty:[] ~union:( @ ) ~add:List.cons in
  fun t ->
    List.sort_uniq compare
      (fold
         {
           syn with
           Spanner_fa.Regex.bind = Some (fun x l -> ("!" ^ x) :: l);
           reference = Some (fun x -> [ "&" ^ x ]);
         }
         t)

let formula_names = occurrences Spanner_core.Regex_formula.fold

let rec algebra_names = function
  | Spanner_core.Algebra.Formula f -> [ formula_names f ]
  | Automaton _ -> []
  | Union (a, b) | Join (a, b) -> algebra_names a @ algebra_names b
  | Project (v, e) | Select (v, e) ->
      List.map Spanner_core.Variable.name (Spanner_core.Variable.Set.elements v) :: algebra_names e

let same_names names x y = names x = names y

(* ------------------------------------------------------------------ *)
(* Targets *)

(* The documents a parsed formula is evaluated on: a fixed one over
   the target's own bytes, and the input's first bytes — the very bytes
   its charsets name, in an order no fixed document has.  Short, so the
   unbudgeted oracle stays cheap. *)
let formula_docs s = [ "ab0x 9a1"; String.sub s 0 (min 12 (String.length s)) ]

(* The tuple list, stats and cardinal of [ct] on [doc]. *)
let stream ct doc =
  let p = Spanner_core.Compiled.prepare ~limits:budget ct doc in
  let cur = Spanner_core.Compiled.cursor p in
  ( List.of_seq (Seq.of_dispenser (fun () -> Spanner_core.Compiled.cursor_next cur)),
    Spanner_core.Compiled.stats p,
    Spanner_core.Compiled.cardinal p )

type target = { name : string; alphabet : string; run : string -> unit }

let targets =
  [|
    {
      name = "formula";
      alphabet = "ab01!x{}[]()*+?|;,.-^\\&9 ";
      run =
        (fun s ->
          let f =
            reparsed ~parse:Spanner_core.Regex_formula.parse
              ~print:Spanner_core.Regex_formula.to_string ~same:(same_names formula_names) s
          in
          (* the compiled automaton — the subset construction's, or
             the automaton as built when it trips its cap — must answer
             like the oracle on the automaton as built *)
          let e = Spanner_core.Evset.of_formula ~limits:budget f in
          let ct = Spanner_core.Compiled.of_evset ~limits:budget e in
          let docs = formula_docs s in
          List.iter
            (fun doc ->
              let compiled = Spanner_core.Compiled.eval ~limits:budget ct doc in
              if not (Spanner_core.Span_relation.equal compiled (Spanner_core.Evset.eval e doc))
              then failwith (Printf.sprintf "compiled automaton disagrees with Evset.eval on %S" doc))
            docs;
          (* and compiling its determinisation enumerates the same
             tuples in the same order, with the same DAG *)
          let det =
            Spanner_core.Compiled.of_evset ~limits:budget
              (Spanner_core.Evset.determinize ~limits:budget e)
          in
          List.iter
            (fun doc ->
              let tuples, stats, cardinal = stream ct doc in
              let tuples', stats', cardinal' = stream det doc in
              if
                not
                  (List.equal Spanner_core.Span_tuple.equal tuples tuples'
                  && stats = stats' && cardinal = cardinal')
              then
                failwith
                  (Printf.sprintf "the determinised automaton enumerates otherwise on %S" doc))
            docs);
    };
    {
      name = "refl";
      alphabet = "ab01!x&{}[]()*+?|;,.-^\\9 ";
      run =
        (fun s ->
          let r =
            reparsed ~parse:Spanner_refl.Refl_regex.parse ~print:Spanner_refl.Refl_regex.to_string
              ~same:(same_names (occurrences Spanner_refl.Refl_regex.fold))
              s
          in
          ignore (Spanner_refl.Refl_spanner.of_regex r));
    };
    {
      name = "datalog";
      alphabet = "pqxyzab(),.:-<>!{}*+;=% \n";
      run = (fun s -> ignore (Spanner_datalog.Datalog.parse ~limits:budget s));
    };
    {
      name = "cde";
      alphabet = "abcdoc()_,0123456789 concatextractdeleteinsertcopy";
      run = (fun s -> ignore (Spanner_slp.Cde.parse s));
    };
    {
      name = "algebra";
      alphabet = "rgxfileps&|()[],\":\\!xy{}ab*+? ";
      run =
        (fun s ->
          (* a parse that succeeds must also print back re-parseably,
             plan, and evaluate under the budget *)
          let e =
            reparsed ~parse:(fun s -> Spanner_core.Algebra.parse s)
              ~print:Spanner_core.Algebra.to_string ~same:(same_names algebra_names) s
          in
          let plan = Spanner_engine.Optimizer.optimize ~limits:budget e in
          ignore (Spanner_engine.Optimizer.eval ~limits:budget plan "abab"));
    };
    {
      name = "slpdb";
      alphabet = "";
      (* empty alphabet: full byte range *)
      run =
        (fun s ->
          let db = Spanner_slp.Serialize.read_string s in
          (* A database that deserializes must also survive freezing:
             walk every node of the snapshot structurally.  Never
             decompress here — a well-formed 60-byte image can derive
             an exponentially long document. *)
          let fz = Spanner_slp.Doc_db.freeze db in
          for id = 0 to Spanner_slp.Slp.frozen_size fz - 1 do
            (match Spanner_slp.Slp.frozen_node fz id with
            | Spanner_slp.Slp.Leaf _ -> ()
            | Spanner_slp.Slp.Pair (l, r) ->
                if l < 0 || l >= id || r < 0 || r >= id then
                  failwith "frozen pair child out of topological order");
            if Spanner_slp.Slp.frozen_len fz id <= 0 then
              failwith "frozen node with non-positive length"
          done);
    };
    {
      name = "arena";
      alphabet = "";
      (* empty alphabet: full byte range *)
      run =
        (fun s ->
          (* dispatch like Corpus.open_path: manifest magic → the text
             manifest grammar (parse only, no filesystem); anything
             else is an arena image.  An image that opens must also
             survive the full structural validation and a walk of
             every node through the flat accessors. *)
          if Spanner_store.Manifest.looks_like s then
            ignore (Spanner_store.Manifest.of_string s)
          else begin
            let a = Spanner_store.Arena.of_string s in
            Spanner_store.Arena.validate a;
            let fz = Spanner_store.Arena.frozen_view a in
            for id = 0 to Spanner_store.Arena.node_count a - 1 do
              ignore (Spanner_slp.Slp.frozen_node fz id);
              ignore (Spanner_slp.Slp.frozen_len fz id)
            done
          end);
    };
    {
      name = "serve";
      alphabet = "0123456789\nDEFINELOADQUERYXPSTACOUH abxy_-.=/{}*+";
      run = Spanner_serve.Protocol.fuzz_entry;
      (* frame decoding (hostile length prefixes, truncations), the
         request grammar, and the canonical-print round-trip *)
    };
  |]

let target_of_name name =
  Array.to_list targets
  |> List.find_opt (fun t ->
         String.length name >= String.length t.name
         && String.sub name 0 (String.length t.name) = t.name)

(* ------------------------------------------------------------------ *)
(* Input springs *)

let random_string rng alphabet len =
  if alphabet = "" then String.init len (fun _ -> Char.chr (X.int rng 256))
  else X.string rng alphabet len

let mutate rng s =
  let n = String.length s in
  match X.int rng 6 with
  | 0 when n > 0 ->
      (* point mutation *)
      let b = Bytes.of_string s in
      Bytes.set b (X.int rng n) (Char.chr (X.int rng 256));
      Bytes.to_string b
  | 1 ->
      (* insertion *)
      let i = X.int rng (n + 1) in
      String.sub s 0 i ^ String.make 1 (Char.chr (X.int rng 256)) ^ String.sub s i (n - i)
  | 2 when n > 0 ->
      (* deletion *)
      let i = X.int rng n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
  | 3 when n > 0 ->
      (* truncation *)
      String.sub s 0 (X.int rng n)
  | 4 when n > 0 ->
      (* duplicate a slice *)
      let i = X.int rng n in
      let len = 1 + X.int rng (n - i) in
      String.sub s 0 (i + len) ^ String.sub s i (len) ^ String.sub s (i + len) (n - i - len)
  | _ when n > 1 ->
      (* splice: swap the halves around a random cut *)
      let i = 1 + X.int rng (n - 1) in
      String.sub s i (n - i) ^ String.sub s 0 i
  | _ -> s ^ random_string rng "ab" 2

(* ------------------------------------------------------------------ *)
(* Corpus *)

let corpus_dir = "corpus"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let corpus () =
  let files =
    if Sys.file_exists corpus_dir && Sys.is_directory corpus_dir then
      Sys.readdir corpus_dir |> Array.to_list |> List.sort String.compare
    else []
  in
  List.filter_map
    (fun f ->
      match target_of_name f with
      | Some t -> Some (t, f, read_file (Filename.concat corpus_dir f))
      | None -> None)
    files

(* A valid SLPDB image to mutate: corrupting a well-formed file probes
   much deeper into the deserializer than random bytes, which rarely
   survive the magic check. *)
let fresh_slpdb () =
  let db = Spanner_slp.Doc_db.create () in
  ignore (Spanner_slp.Doc_db.add_string db "d1" "abracadabra");
  ignore (Spanner_slp.Doc_db.add_string db "d2" "abcabcabcabc");
  Spanner_slp.Serialize.write_string db

(* Same idea for the arena deserializer: a well-formed image whose
   mutations reach past the header checksum. *)
let fresh_arena () =
  let db = Spanner_slp.Doc_db.create () in
  ignore (Spanner_slp.Doc_db.add_string db "d1" "abracadabra");
  ignore (Spanner_slp.Doc_db.add_string db "d2" "abcabcabcabc");
  let store = Spanner_slp.Doc_db.store db in
  let docs =
    List.map (fun n -> (n, Spanner_slp.Doc_db.find db n)) (Spanner_slp.Doc_db.names db)
  in
  Spanner_store.Arena.pack_bytes store docs

(* ------------------------------------------------------------------ *)
(* Driver *)

let escape s =
  String.concat "" (List.map (fun c -> Printf.sprintf "\\x%02x" (Char.code c))
                      (List.of_seq (String.to_seq s)))

let crashes = ref 0

let run_one (t : target) input =
  match t.run input with
  | () -> ()
  | exception e when allowed e -> ()
  | exception e ->
      incr crashes;
      Printf.eprintf "CRASH %s: %s\n  input: \"%s\"\n%!" t.name (Printexc.to_string e)
        (escape input)

let () =
  let seed = ref 42 in
  let iters = ref 50_000 in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "PRNG seed (default 42)");
      ("--iters", Arg.Set_int iters, "number of fuzz inputs (default 50000)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "fuzz_main [options]";
  let rng = X.create !seed in
  (* 1. replay the checked-in crash corpus *)
  let seeds = corpus () in
  List.iter (fun (t, _, contents) -> run_one t contents) seeds;
  (* 2. seed pool per target: corpus files + a fresh SLPDB image *)
  let pool t =
    let own = List.filter_map (fun (t', _, c) -> if t' == t then Some c else None) seeds in
    if t.name = "slpdb" then fresh_slpdb () :: own
    else if t.name = "arena" then fresh_arena () :: own
    else own
  in
  let pools = Array.map (fun t -> Array.of_list (pool t)) targets in
  (* 3. random + mutation rounds *)
  for i = 0 to !iters - 1 do
    let ti = i mod Array.length targets in
    let t = targets.(ti) in
    let input =
      if Array.length pools.(ti) > 0 && X.bool rng then begin
        let s = ref (X.choose rng pools.(ti)) in
        for _ = 0 to X.int rng 4 do
          s := mutate rng !s
        done;
        !s
      end
      else random_string rng t.alphabet (1 + X.int rng 60)
    in
    run_one t input
  done;
  if !crashes > 0 then begin
    Printf.eprintf "%d crash(es) out of %d inputs (seed %d)\n%!" !crashes !iters !seed;
    exit 1
  end
  else Printf.printf "fuzz: %d inputs across %d targets, 0 crashes (seed %d)\n%!" !iters
      (Array.length targets) !seed
