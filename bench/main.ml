(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md
   (the survey has no measurement tables; its complexity claims are the
   evaluation — see DESIGN.md §2 for the experiment index).

   Run with:  dune exec bench/main.exe

   Each experiment prints a table; the Bechamel section at the end runs
   one micro-benchmark per experiment family through bechamel's OLS
   estimator. *)

open Spanner_core
module Slp = Spanner_slp.Slp
module Builder = Spanner_slp.Builder
module Balance = Spanner_slp.Balance
module Doc_db = Spanner_slp.Doc_db
module Cde = Spanner_slp.Cde
module Accept = Spanner_slp.Accept
module Slp_spanner = Spanner_slp.Slp_spanner
module Figure1 = Spanner_slp.Figure1
module Incr = Spanner_incr.Incr
module Refl_spanner = Spanner_refl.Refl_spanner
module X = Spanner_util.Xoshiro
module Pool = Spanner_util.Pool
module Limits = Spanner_util.Limits
module Nfa = Spanner_fa.Nfa
module Regex = Spanner_fa.Regex
module Cursor = Spanner_engine.Cursor
module Optimizer = Spanner_engine.Optimizer
module Plan = Spanner_engine.Plan
open Tables

let v = Variable.of_string
let vs = Variable.set_of_list

(* --smoke shrinks every experiment to sanity-check sizes (seconds, not
   minutes) so the whole harness can run under the @bench-smoke alias;
   the shapes the notes describe are not expected to show at these
   sizes, only to execute. *)
let smoke = ref false
let sizes full tiny = if !smoke then tiny else full
let sc full tiny = if !smoke then tiny else full

(* ------------------------------------------------------------------ *)
(* F1: Figure 1, reproduced exactly                                    *)

let figure1 () =
  section "F1: Figure 1 — the example SLP (solid + grey part)";
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  let a4, a5 = Figure1.extend fig in
  let named =
    [
      ("A1", fig.Figure1.a1);
      ("A2", fig.Figure1.a2);
      ("A3", fig.Figure1.a3);
      ("B", fig.Figure1.b);
      ("C", fig.Figure1.c);
      ("D", fig.Figure1.d);
      ("E", fig.Figure1.e);
      ("F", fig.Figure1.f);
      ("A4 (grey)", a4);
      ("A5 (grey)", a5);
    ]
  in
  let rows =
    List.map
      (fun (name, id) ->
        [
          name;
          Slp.to_string store id;
          string_of_int (Slp.order store id);
          string_of_int (Slp.balance store id);
        ])
      named
  in
  print_table ~title:"node / derived document / ord / bal (§4.1 values)"
    ~header:[ "node"; "derived document"; "ord"; "bal" ]
    rows;
  note "paper: ord F = ord E = 2, ord C = 3, ord B = 4, ord D = ord A3 = 5, ord A1 = ord A2 = 6";
  note "paper: all nodes balanced except bal A1 = 2, bal A2 = bal A3 = -2";
  note "D(A5) = abbcabcaabbcaabbca as computed in §4.3: %s"
    (if Slp.to_string store a5 = "abbcabcaabbcaabbca" then "reproduced OK" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* E1: enumeration for regular spanners (§2.5)                         *)

let e1_enumeration () =
  section
    "E1: regular-spanner enumeration — linear preprocessing, delay independent of |D| (§2.5)";
  let e = Evset.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  let rng = X.create 1 in
  let rows =
    List.map
      (fun k ->
        let n = 1 lsl k in
        let doc = X.string rng "ab" n in
        (* compile + prepare, as one call per document would pay *)
        let prepare () = Compiled.prepare (Compiled.of_evset e) doc in
        let prep = best_of 3 (fun () -> ignore (prepare ())) in
        let p = prepare () in
        let count = Compiled.cardinal p in
        Gc.full_major ();
        let max_delay = ref 0.0 and total = ref 0.0 and produced = ref 0 in
        let cur = Compiled.cursor p in
        let last = ref (now ()) in
        while Compiled.cursor_next cur <> None do
          let t = now () in
          let gap = t -. !last in
          last := t;
          incr produced;
          total := !total +. gap;
          if gap > !max_delay then max_delay := gap
        done;
        [
          pretty_int n;
          pretty_time prep;
          Printf.sprintf "%.1f" (prep *. 1e9 /. float_of_int n);
          pretty_int count;
          pretty_time (!total /. float_of_int (max 1 !produced));
          pretty_time !max_delay;
        ])
      (sizes [ 10; 11; 12; 13; 14; 15; 16; 17 ] [ 6; 7 ])
  in
  print_table ~title:"spanner [ab]*!x{ab}[ab]* on random documents"
    ~header:[ "|D|"; "preprocess"; "ns/char"; "tuples"; "mean delay"; "max delay" ]
    rows;
  note "expected shape: ns/char flat (linear preprocessing); mean delay flat vs |D|."

(* ------------------------------------------------------------------ *)
(* E2: regular vs core evaluation (§2.4)                               *)

let e2_regular_vs_core () =
  section
    "E2: evaluation — polynomial for regular spanners, exponential search space for core (§2.4)";
  let doc = "abababababab" in
  let rows =
    List.map
      (fun n ->
        let formula =
          String.concat "" (List.init n (fun i -> Printf.sprintf "!pv%d{[ab]*}" i))
        in
        let expr =
          let rec add_selections i acc =
            if i + 1 >= n then acc
            else
              add_selections (i + 2)
                (Algebra.Select
                   ( vs [ v (Printf.sprintf "pv%d" i); v (Printf.sprintf "pv%d" (i + 1)) ],
                     acc ))
          in
          add_selections 0 (Algebra.formula formula)
        in
        let s = Core_spanner.simplify expr in
        let auto = s.Core_spanner.automaton in
        let regular_time = best_of 3 (fun () -> ignore (Evset.nonempty_on auto doc)) in
        let splits = Compiled.cardinal (Compiled.prepare (Compiled.of_evset auto) doc) in
        let results, core_time = time (fun () -> Span_relation.cardinal (Core_spanner.eval s doc)) in
        [
          string_of_int n;
          pretty_int splits;
          pretty_time regular_time;
          pretty_time core_time;
          pretty_int results;
        ])
      (sizes [ 2; 3; 4; 5; 6 ] [ 2; 3 ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "pattern matching with variables: x1{S*}...xn{S*} + adjacent-pair selections on %S" doc)
    ~header:[ "n vars"; "automaton tuples"; "regular NonEmpt"; "core eval"; "core results" ]
    rows;
  note
    "expected shape: regular time flat; the core search space (automaton tuples) grows as \
     |D|^(n-1).";
  let e = Evset.of_formula (Regex_formula.parse "!x{a[ab]*}!y{b+}") in
  let rng = X.create 3 in
  let rows =
    List.map
      (fun k ->
        let n = 1 lsl k in
        let doc = X.string rng "a" (n - 2) ^ "bb" in
        let tuple =
          Span_tuple.of_list
            [ (v "x", Span.make 1 (n - 1)); (v "y", Span.make (n - 1) (n + 1)) ]
        in
        let t = best_of 3 (fun () -> ignore (Evset.accepts_tuple e doc tuple)) in
        [ pretty_int n; pretty_time t; Printf.sprintf "%.1f" (t *. 1e9 /. float_of_int n) ])
      (sizes [ 10; 12; 14; 16; 18 ] [ 8; 10 ])
  in
  print_table ~title:"regular ModelChecking scaling" ~header:[ "|D|"; "time"; "ns/char" ] rows

(* ------------------------------------------------------------------ *)
(* E3: core-spanner expressiveness (§2.4)                              *)

let e3_core_expressiveness () =
  section "E3: core spanners express the word-equation relations ~com and ~cyc (§2.4)";
  let com_spanner =
    Core_spanner.simplify
      (Algebra.Select
         ( vs [ v "cbx"; v "cbx2" ],
           Algebra.Select
             ( vs [ v "cby"; v "cby2" ],
               Algebra.Join
                 ( Algebra.formula "!cbx{[ab]*}!cby{[ab]*}",
                   Algebra.formula "!cby2{[ab]*}!cbx2{[ab]*}" ) ) ))
  in
  let cyc_spanner =
    Core_spanner.simplify
      (Algebra.Select
         ( vs [ v "cu1"; v "cv2" ],
           Algebra.Select
             ( vs [ v "cu2"; v "cv1" ],
               Algebra.formula "!cu1{[ab]*}!cu2{[ab]*}#!cv1{[ab]*}!cv2{[ab]*}" ) ))
  in
  let commutes_spanner u w =
    let doc = u ^ w in
    List.exists
      (fun tuple ->
        match Span_tuple.find tuple (v "cbx") with
        | Some sp -> Span.left sp = 1 && Span.right sp = String.length u + 1
        | None -> false)
      (Span_relation.tuples (Core_spanner.eval com_spanner doc))
  in
  let cyc u w = Core_spanner.nonempty_on cyc_spanner (u ^ "#" ^ w) in
  let rng = X.create 17 in
  let samples = 60 in
  let com_agree = ref 0 and cyc_agree = ref 0 in
  let com_time = ref 0.0 and cyc_time = ref 0.0 in
  for _ = 1 to samples do
    let u = X.string rng "ab" (X.int rng 5) in
    let w = X.string rng "ab" (X.int rng 5) in
    let t0 = now () in
    let got_com = commutes_spanner u w in
    com_time := !com_time +. (now () -. t0);
    if got_com = (u ^ w = w ^ u) then incr com_agree;
    let w2 =
      if X.bool rng && String.length u > 0 then
        let k = X.int rng (String.length u) in
        String.sub u k (String.length u - k) ^ String.sub u 0 k
      else w
    in
    let is_shift =
      String.length u = String.length w2
      && (u = ""
         || List.exists
              (fun k -> String.sub u k (String.length u - k) ^ String.sub u 0 k = w2)
              (List.init (String.length u) Fun.id))
    in
    let t1 = now () in
    let got_cyc = cyc u w2 in
    cyc_time := !cyc_time +. (now () -. t1);
    if got_cyc = is_shift then incr cyc_agree
  done;
  print_table ~title:"agreement with direct string predicates (random pairs)"
    ~header:[ "relation"; "agreement"; "mean time per check" ]
    [
      [
        "~com (xy = yx)";
        Printf.sprintf "%d/%d" !com_agree samples;
        pretty_time (!com_time /. float_of_int samples);
      ];
      [
        "~cyc (xz = zy)";
        Printf.sprintf "%d/%d" !cyc_agree samples;
        pretty_time (!cyc_time /. float_of_int samples);
      ];
    ];
  note "expected shape: 100%% agreement — core spanners capture the word-equation relations."

(* ------------------------------------------------------------------ *)
(* E4: refl vs core (§3.3)                                             *)

let e4_refl_vs_core () =
  section "E4: refl-spanner ModelChecking is linear in |D|; the core route explodes (§3.3)";
  let refl = Refl_spanner.parse "!x{[ab]+}c!y{&x}" in
  let core = Refl_spanner.to_core refl in
  let rng = X.create 9 in
  let rows =
    List.map
      (fun k ->
        let half = 1 lsl k in
        let w = X.string rng "ab" half in
        let doc = w ^ "c" ^ w in
        let n = String.length doc in
        let tuple =
          Span_tuple.of_list
            [ (v "x", Span.make 1 (half + 1)); (v "y", Span.make (half + 2) (n + 1)) ]
        in
        let refl_time = best_of 3 (fun () -> ignore (Refl_spanner.model_check refl doc tuple)) in
        assert (Refl_spanner.model_check refl doc tuple);
        let core_time =
          if k <= 9 then
            Some (time_unit (fun () -> ignore (Core_spanner.model_check core doc tuple)))
          else None
        in
        [
          pretty_int n;
          pretty_time refl_time;
          Printf.sprintf "%.1f" (refl_time *. 1e9 /. float_of_int n);
          (match core_time with Some t -> pretty_time t | None -> "(skipped)");
        ])
      (sizes [ 4; 5; 6; 7; 8; 9; 10; 12; 14 ] [ 4; 5 ])
  in
  print_table ~title:"ModelChecking w.c.w with the backreference x = y"
    ~header:[ "|D|"; "refl MC"; "refl ns/char"; "core MC (enumerate+filter)" ]
    rows;
  note "expected shape: refl ns/char flat (linear, §3.3); core time grows superlinearly.";
  let sat_time = best_of 5 (fun () -> ignore (Refl_spanner.satisfiable refl)) in
  note "refl Satisfiability (plain reachability, §3.3): %s" (pretty_time sat_time)

(* ------------------------------------------------------------------ *)
(* E5: NFA acceptance over SLPs (§4.2)                                 *)

let e5_slp_accept () =
  section "E5: NFA acceptance — O(|S|·n³) on the SLP vs linear-time decompression (§4.2)";
  let nfa = Nfa.of_regex (Regex.parse "(ab)*") in
  let rows =
    List.map
      (fun k ->
        let store = Slp.create_store () in
        let id = Builder.repeat store "ab" (1 lsl k) in
        let slp_size = Slp.reachable_size store id in
        let n = Slp.len store id in
        let compressed =
          best_of 3 (fun () ->
              let cache = Accept.make_cache nfa store in
              ignore (Accept.accepts cache id))
        in
        let decompressed =
          if k <= 21 then
            Some (best_of 3 (fun () -> ignore (Accept.accepts_via_decompression nfa store id)))
          else None
        in
        [
          pretty_int n;
          string_of_int slp_size;
          pretty_time compressed;
          (match decompressed with Some t -> pretty_time t | None -> "(skipped)");
          (match decompressed with
          | Some t when compressed > 0.0 -> Printf.sprintf "%.0fx" (t /. compressed)
          | _ -> "-");
        ])
      (sizes [ 8; 10; 12; 14; 16; 18; 20; 22 ] [ 8; 10 ])
  in
  print_table ~title:"membership of (ab)^k in (ab)* — compressed vs decompress-and-run"
    ~header:[ "|D|"; "|S|"; "SLP matrices"; "decompress+NFA"; "speedup" ]
    rows;
  note
    "expected shape: SLP time grows with |S| (about log |D|); baseline grows linearly — \
     crossover, then orders of magnitude."

(* ------------------------------------------------------------------ *)
(* E6: spanner enumeration over SLPs (§4.2)                            *)

let e6_slp_enumeration () =
  section "E6: spanner enumeration over SLPs — preprocessing O(|S|), delay O(log |D|) (§4.2)";
  let e = Evset.of_formula (Regex_formula.parse "[ab]*!x{ba}[ab]*") in
  let rows =
    List.map
      (fun k ->
        let store = Slp.create_store () in
        let id = Builder.repeat store "ab" (1 lsl k) in
        let n = Slp.len store id in
        let slp_size = Slp.reachable_size store id in
        let prep =
          best_of 3 (fun () ->
              let engine = Slp_spanner.create e store in
              Slp_spanner.prepare engine id)
        in
        let engine = Slp_spanner.create e store in
        Slp_spanner.prepare engine id;
        let total = Slp_spanner.tuple_count engine id in
        let budget = 500 in
        Gc.full_major ();
        let produced = ref 0 and sum = ref 0.0 in
        let cur = Slp_spanner.cursor engine id in
        let last = ref (now ()) in
        while !produced < budget && Slp_spanner.cursor_next cur <> None do
          let t = now () in
          sum := !sum +. (t -. !last);
          last := t;
          incr produced
        done;
        let uncompressed_prep =
          if k <= 16 then begin
            let doc = Slp.to_string store id in
            Some (time_unit (fun () -> ignore (Compiled.prepare (Compiled.of_evset e) doc)))
          end
          else None
        in
        [
          pretty_int n;
          string_of_int slp_size;
          pretty_time prep;
          pretty_int total;
          pretty_time (!sum /. float_of_int (max 1 !produced));
          (match uncompressed_prep with Some t -> pretty_time t | None -> "(skipped)");
        ])
      (sizes [ 8; 10; 12; 14; 16; 18; 20 ] [ 8; 10 ])
  in
  print_table ~title:"spanner [ab]*!x{ba}[ab]* over (ab)^k"
    ~header:
      [ "|D|"; "|S|"; "SLP preprocess"; "tuples"; "mean delay (500)"; "uncompressed preprocess" ]
    rows;
  note
    "expected shape: SLP preprocessing grows with |S| (not |D|); delay grows about log |D|; \
     uncompressed preprocessing linear in |D|."

(* ------------------------------------------------------------------ *)
(* E7: CDE updates (§4.3)                                              *)

let e7_cde_updates () =
  section
    "E7: complex document editing in O(|phi| log d) with incremental spanner maintenance (§4.3)";
  let e = Evset.of_formula (Regex_formula.parse "[ab]*!x{ba}[ab]*") in
  let rows =
    List.map
      (fun k ->
        let db = Doc_db.create () in
        let store = Doc_db.store db in
        let id = Builder.repeat store "ab" (1 lsl (k - 1)) in
        Doc_db.add db "base" id;
        let n = Slp.len store id in
        let expr =
          Cde.Insert (Cde.Doc "base", Cde.Extract (Cde.Doc "base", n / 4, n / 2), (2 * n) / 3)
        in
        let update = best_of 5 (fun () -> ignore (Cde.eval db expr)) in
        let engine = Slp_spanner.create e store in
        Slp_spanner.prepare engine id;
        let before = Slp_spanner.matrices_computed engine in
        let edited = Cde.eval db expr in
        Slp_spanner.prepare engine edited;
        let new_matrices = Slp_spanner.matrices_computed engine - before in
        let results = Slp_spanner.tuple_count engine edited in
        let rebuild =
          if k <= 18 then begin
            let doc = Slp.to_string store edited in
            Some (time_unit (fun () -> ignore (Builder.lz78 store doc)))
          end
          else None
        in
        [
          pretty_int n;
          pretty_time update;
          string_of_int new_matrices;
          pretty_int results;
          (match rebuild with Some t -> pretty_time t | None -> "(skipped)");
        ])
      (sizes [ 10; 12; 14; 16; 18; 20; 22 ] [ 10; 12 ])
  in
  print_table ~title:"insert(base, extract(base, n/4, n/2), 2n/3) on (ab)^k"
    ~header:[ "|D|"; "CDE update"; "new matrices"; "results after edit"; "recompress baseline" ]
    rows;
  note "expected shape: update time and new matrices grow about log |D|; recompression grows linearly."

(* ------------------------------------------------------------------ *)
(* E8: balancing (§4.1)                                                *)

let e8_balancing () =
  section "E8: strong balancing — size O(|S| log |D|), strongly balanced implies 2-shallow (§4.1)";
  let rng = X.create 33 in
  let store = Slp.create_store () in
  let subjects =
    [
      ("random 4k (lz78)", Builder.lz78 store (X.string rng "abcd" (sc 4096 256)));
      ("random 64k (lz78)", Builder.lz78 store (X.string rng "abcd" (sc 65536 512)));
      ( "periodic 48k (lz78)",
        Builder.lz78 store (String.concat "" (List.init (sc 4096 64) (fun _ -> "abcabcabcabc"))) );
      ("left comb 2k", Slp.of_string store (X.string rng "ab" (sc 2048 256)));
      ("fibonacci F30", Builder.fibonacci store 30);
      ("power (ab)^2^18", Builder.repeat store "ab" (1 lsl sc 18 8));
    ]
  in
  let rows =
    List.map
      (fun (name, id) ->
        let size_before = Slp.reachable_size store id in
        let ord_before = Slp.order store id in
        let balanced, t = time (fun () -> Balance.rebalance store id) in
        let size_after = Slp.reachable_size store balanced in
        let ord_after, log2 = Balance.depth_stats store balanced in
        [
          name;
          pretty_int (Slp.len store id);
          pretty_int size_before;
          string_of_int ord_before;
          pretty_int size_after;
          string_of_int ord_after;
          string_of_int (2 * log2);
          (if Slp.is_strongly_balanced store balanced then "yes" else "NO");
          pretty_time t;
        ])
      subjects
  in
  print_table ~title:"rebalancing across the compressibility spectrum"
    ~header:
      [
        "input"; "|D|"; "|S| before"; "ord before"; "|S| after"; "ord after"; "2 log2 |D|";
        "strongly bal"; "time";
      ]
    rows;
  note "expected shape: ord after <= 2 log2 |D| (2-shallow); |S| grows by at most a log factor."

(* ------------------------------------------------------------------ *)
(* E9: core spanners over compressed documents (Slp_core)              *)

let e9_core_over_slp () =
  section
    "E9: string-equality selections over SLPs — fingerprint filtering without decompression";
  let core =
    Core_spanner.simplify
      (Algebra.Select
         (vs [ v "x"; v "y" ], Algebra.formula "!x{[ab]+};!y{[ab]+};[ab;]*"))
  in
  let rows =
    List.map
      (fun k ->
        let store = Slp.create_store () in
        let id = Builder.repeat store "ab;" (1 lsl k) in
        let n = Slp.len store id in
        let sc = Spanner_slp.Slp_core.create core store in
        let compressed_first =
          best_of 3 (fun () -> ignore (Spanner_slp.Slp_core.nonempty_on sc id))
        in
        let uncompressed =
          if k <= 13 then begin
            let t =
              time_unit (fun () ->
                  let doc = Slp.to_string store id in
                  ignore (Core_spanner.nonempty_on core doc))
            in
            Some t
          end
          else None
        in
        [
          pretty_int n;
          string_of_int (Slp.reachable_size store id);
          pretty_time compressed_first;
          (match uncompressed with Some t -> pretty_time t | None -> "(skipped)");
        ])
      (sizes [ 6; 8; 10; 12; 14; 16 ] [ 6; 8 ])
  in
  print_table
    ~title:"first duplicate adjacent field in (ab;)^k — compressed vs decompress-and-run"
    ~header:[ "|D|"; "|S|"; "compressed NonEmptiness"; "decompress + core NonEmptiness" ]
    rows;
  note
    "expected shape: the compressed route finds the first witness in near-constant time (the \
     first tuples come from the top of the DAG); the baseline pays |D| for decompression and \
     hashing first."

(* ------------------------------------------------------------------ *)
(* E10: context-free spanners ([31])                                   *)

let e10_context_free () =
  section "E10: context-free spanners — O(|D|³) recognition buys beyond-regular extraction ([31])";
  let dyck =
    Spanner_cfg.Cf_spanner.dyck_extractor ~x:(v "cfx") ~open_c:'(' ~close_c:')'
      ~other:(Spanner_fa.Charset.of_string "ab")
  in
  let rng = X.create 41 in
  let rows =
    List.map
      (fun n ->
        (* a random balanced-ish document: nested groups with letters *)
        let buf = Buffer.create n in
        let depth = ref 0 in
        while Buffer.length buf < n - 1 do
          match X.int rng 4 with
          | 0 ->
              Buffer.add_char buf '(';
              incr depth
          | 1 when !depth > 0 ->
              Buffer.add_char buf ')';
              decr depth
          | _ -> Buffer.add_char buf (if X.bool rng then 'a' else 'b')
        done;
        while !depth > 0 do
          Buffer.add_char buf ')';
          decr depth
        done;
        let doc = Buffer.contents buf in
        let recog = best_of 3 (fun () -> ignore (Spanner_cfg.Cf_spanner.nonempty_on dyck doc)) in
        let groups, eval_time =
          time (fun () -> Span_relation.cardinal (Spanner_cfg.Cf_spanner.eval dyck doc))
        in
        [
          pretty_int (String.length doc);
          pretty_time recog;
          Printf.sprintf "%.1f"
            (recog *. 1e9 /. (float_of_int (String.length doc) ** 3.0));
          pretty_int groups;
          pretty_time eval_time;
        ])
      (sizes [ 16; 32; 64; 128; 256 ] [ 16; 32 ])
  in
  print_table ~title:"Dyck-group extraction on random nested documents"
    ~header:[ "|D|"; "recognition"; "ns/char^3"; "groups"; "full eval" ]
    rows;
  note "expected shape: recognition grows cubically (ns/char^3 flat) — the price of leaving the regular class."

(* ------------------------------------------------------------------ *)
(* E11: datalog over spanners ([33])                                   *)

let e11_datalog () =
  section "E11: datalog over regular spanners — recursion on top of extraction ([33])";
  let step =
    Evset.of_formula (Regex_formula.parse "([ab]+;)*!x{[ab]+};!y{[ab]+};([ab]+;)*")
  in
  let program =
    Spanner_datalog.Datalog.make
      [
        {
          Spanner_datalog.Datalog.head = ("eq_next", [ "x"; "y" ]);
          body =
            [
              Spanner_datalog.Datalog.Spanner (step, [ (v "x", "x"); (v "y", "y") ]);
              Spanner_datalog.Datalog.Content_eq ("x", "y");
            ];
        };
        {
          Spanner_datalog.Datalog.head = ("chain", [ "x"; "y" ]);
          body = [ Spanner_datalog.Datalog.Idb ("eq_next", [ "x"; "y" ]) ];
        };
        {
          Spanner_datalog.Datalog.head = ("chain", [ "x"; "z" ]);
          body =
            [
              Spanner_datalog.Datalog.Idb ("chain", [ "x"; "y" ]);
              Spanner_datalog.Datalog.Idb ("eq_next", [ "y"; "z" ]);
            ];
        };
      ]
  in
  let rows =
    List.map
      (fun k ->
        let doc = String.concat "" (List.init k (fun _ -> "ab;")) in
        let result, t = time (fun () -> Spanner_datalog.Datalog.run program doc) in
        [
          string_of_int k;
          pretty_int (Spanner_datalog.Datalog.fact_count result "chain");
          string_of_int (Spanner_datalog.Datalog.iterations result);
          pretty_time t;
        ])
      (sizes [ 4; 8; 16; 32; 64 ] [ 4; 8 ])
  in
  print_table ~title:"transitive closure of equal-neighbour fields on (ab;)^k"
    ~header:[ "fields"; "chain facts (k(k-1)/2)"; "semi-naive rounds"; "time" ]
    rows;
  note "expected shape: chain facts quadratic; rounds linear in the longest chain."

(* ------------------------------------------------------------------ *)
(* E12: compiled evaluation engine (§2.5 combined vs data complexity)  *)

let e12_compiled_engine () =
  section
    "E12: compiled evaluation engine — spanner compilation hoisted out of the document pass (§2.5)";
  let e = Evset.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  let ct = Compiled.of_evset e in
  let rng = X.create 23 in
  let rows =
    List.map
      (fun k ->
        let n = 1 lsl k in
        let doc = X.string rng "ab" n in
        let compiled = best_of 3 (fun () -> ignore (Compiled.prepare ct doc)) in
        [
          pretty_int n;
          pretty_time compiled;
          pretty_int (Compiled.cardinal (Compiled.prepare ct doc));
        ])
      (sizes [ 10; 12; 14; 16; 17 ] [ 8; 10 ])
  in
  print_table
    ~title:"preprocessing [ab]*!x{ab}[ab]* — compiled tables (compilation excluded)"
    ~header:[ "|D|"; "compiled prepare"; "tuples" ]
    rows;
  note "expected shape: linear in |D|.";
  let docs =
    Array.init (sc 64 8) (fun i ->
        (string_of_int i, X.string rng "ab" ((sc 2048 256) + (61 * i))))
  in
  let plan = Plan.make ct (Plan.Docs docs) in
  let seq = best_of 3 (fun () -> ignore (Plan.relations ~jobs:1 plan)) in
  let rows =
    List.map
      (fun j ->
        let t = best_of 3 (fun () -> ignore (Plan.relations ~jobs:j plan)) in
        [ string_of_int j; pretty_time t; Printf.sprintf "%.1fx" (seq /. max t 1e-9) ])
      (List.sort_uniq compare [ 1; 2; 4; Pool.default_jobs () ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "batch Plan.relations over %d documents (%s chars total, one compiled spanner)"
         (Array.length docs)
         (pretty_int (Array.fold_left (fun acc (_, d) -> acc + String.length d) 0 docs)))
    ~header:[ "domains"; "wall time"; "speedup vs 1" ]
    rows;
  note "expected shape: near-linear scaling until domains exceed cores (%d recommended here)."
    (Pool.default_jobs ())

(* ------------------------------------------------------------------ *)
(* E13: incremental evaluation (per-node summary cache, §4.3)          *)

let e13_incremental () =
  section
    "E13: incremental evaluation — cached per-node summaries make re-evaluation after a CDE \
     edit cost O(new nodes), not O(|D|) (§4.3)";
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{ddccbbaa}.*") in
  let rng = X.create 91 in
  let json = ref [] in
  let rows =
    List.map
      (fun k ->
        let n = 1 lsl k in
        let doc = X.string rng "abcd" n in
        let db = Doc_db.create () in
        let store = Doc_db.store db in
        ignore (Doc_db.add_string db "doc" doc);
        let root = Doc_db.find db "doc" in
        let slp_size = Slp.reachable_size store root in
        let session = Incr.create ct db in
        (* cold evaluation summarises every reachable node once *)
        let cold = time_unit (fun () -> ignore (Incr.eval session root)) in
        Incr.reset_stats session;
        let created0 = (Incr.stats session).Incr.nodes_created in
        (* one 64-character insert per trial, at varying positions so
           every trial creates fresh (uncached) nodes *)
        let trials = 8 in
        let total = ref 0.0 in
        for t = 1 to trials do
          let len = Slp.len store (Doc_db.find db "doc") in
          let i = 1 + (t * 7919 mod (len - 64)) in
          let p = 1 + (t * 104729 mod len) in
          let expr = Cde.Insert (Cde.Doc "doc", Cde.Extract (Cde.Doc "doc", i, i + 63), p) in
          total := !total +. time_unit (fun () -> ignore (Incr.edit session "doc" expr))
        done;
        let per_edit = !total /. float_of_int trials in
        let st = Incr.stats session in
        let new_nodes = (st.Incr.nodes_created - created0) / trials in
        let current = Slp.to_string store (Doc_db.find db "doc") in
        let prepare = best_of 3 (fun () -> ignore (Compiled.prepare ct current)) in
        json :=
          (Printf.sprintf "e13/compiled-prepare-%d" n, Some (prepare *. 1e9))
          :: (Printf.sprintf "e13/incr-edit-reeval-%d" n, Some (per_edit *. 1e9))
          :: !json;
        [
          pretty_int n;
          pretty_int slp_size;
          pretty_time cold;
          string_of_int new_nodes;
          pretty_time per_edit;
          pretty_time prepare;
          Printf.sprintf "%.0fx" (prepare /. max per_edit 1e-9);
          pretty_int st.Incr.hits;
          pretty_int st.Incr.misses;
        ])
      (sizes [ 14; 16; 17 ] [ 10; 11 ])
  in
  print_table
    ~title:
      "single CDE edit (insert a 64-char factor) + incremental re-evaluation vs full \
       Compiled.prepare — spanner .*!x{ddccbbaa}.* on random abcd text"
    ~header:
      [
        "|D|"; "|S|"; "cold eval"; "new nodes/edit"; "edit+re-eval"; "compiled prepare";
        "speedup"; "hits"; "misses";
      ]
    rows;
  note
    "expected shape: edit+re-eval flat-ish in |D| (only the O(log d) new nodes are \
     summarised — see misses vs hits); full re-preparation linear in |D|.";
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E14: resource-governance overhead (DESIGN.md §2c)                   *)

let e14_robustness () =
  section
    "E14: resource governance — amortized budget probes on the evaluation hot path \
     (target: < 5% overhead under a generous budget)";
  let ct = Compiled.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  (* A *generous* budget, not [Limits.none]: every axis is bounded so
     every probe does real work (including the gettimeofday deadline
     probe every ~4K steps) without ever tripping. *)
  let generous =
    Limits.make ~fuel:1_000_000_000 ~time_ms:3_600_000 ~max_states:1_000_000
      ~max_tuples:1_000_000_000 ()
  in
  let rng = X.create 47 in
  let json = ref [] in
  let rows =
    List.map
      (fun k ->
        let n = 1 lsl k in
        let doc = X.string rng "ab" n in
        let free = best_of 5 (fun () -> ignore (Compiled.eval ct doc)) in
        let governed = best_of 5 (fun () -> ignore (Compiled.eval ~limits:generous ct doc)) in
        let overhead = 100.0 *. ((governed /. max free 1e-9) -. 1.0) in
        let c_free = Span_relation.cardinal (Compiled.eval ct doc) in
        let c_gov = Span_relation.cardinal (Compiled.eval ~limits:generous ct doc) in
        json :=
          (Printf.sprintf "e14/eval-governed-%d" n, Some (governed *. 1e9))
          :: (Printf.sprintf "e14/eval-free-%d" n, Some (free *. 1e9))
          :: !json;
        [
          pretty_int n;
          pretty_time free;
          pretty_time governed;
          Printf.sprintf "%+.1f%%" overhead;
          (if c_free = c_gov then pretty_int c_gov else "MISMATCH");
        ])
      (sizes [ 12; 14; 16 ] [ 10; 11 ])
  in
  print_table
    ~title:
      "Compiled.eval [ab]*!x{ab}[ab]* — ungoverned vs a generous 4-axis budget (fuel, \
       deadline, states, tuples all bounded, none tripping)"
    ~header:[ "|D|"; "free"; "governed"; "overhead"; "tuples" ]
    rows;
  note
    "expected shape: overhead a few percent at worst (one increment + compare per step; \
     clock probed every ~4096 steps) and shrinking as output work dominates.";
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E15: compressed-domain batch evaluation (§4.2, DESIGN.md §2d)       *)

let e15_compressed_batch () =
  section
    "E15: compressed-domain batch evaluation — one matrix sweep over the shared SLP vs \
     decompress-then-evaluate (§4.2)";
  let ct = Compiled.of_formula (Regex_formula.parse "[abcd]*!x{dcba}[abcd]*") in
  let rng = X.create 63 in
  let ndocs = 16 in
  let n = 1 lsl sc 14 9 in
  let json = ref [] in
  let rows =
    List.map
      (fun repeat ->
        (* each document is a random base repeated [repeat] times by
           node doubling: the repeat factor is the compression knob
           (1 ≈ incompressible, 64 ≈ a dedup-style corpus where the
           repetition is structural in the SLP) *)
        let db = Doc_db.create () in
        let store = Doc_db.store db in
        for i = 1 to ndocs do
          let base = Builder.balanced_of_string store (X.string rng "abcd" (n / repeat)) in
          let d = ref base in
          let doublings = int_of_float (Float.round (Float.log2 (float_of_int repeat))) in
          for _ = 1 to doublings do
            d := Slp.pair store !d !d
          done;
          Doc_db.add db (Printf.sprintf "doc%02d" i) !d
        done;
        let total = Doc_db.total_len db in
        let nodes = Doc_db.compressed_size db in
        let run engine = Plan.relations (Plan.make ~force:engine ct (Plan.Db db)) in
        let check engine =
          Array.iter
            (fun (name, r) ->
              match r with
              | Ok _ -> ()
              | Error e -> failwith (name ^ ": " ^ Printexc.to_string e))
            (run engine)
        in
        check `Compressed;
        check `Decompress;
        let compressed = best_of 3 (fun () -> ignore (run `Compressed)) in
        let decompress = best_of 3 (fun () -> ignore (run `Decompress)) in
        let ratio = float_of_int total /. float_of_int nodes in
        json :=
          (Printf.sprintf "e15/compressed-x%d" repeat, Some (compressed *. 1e9))
          :: (Printf.sprintf "e15/decompress-x%d" repeat, Some (decompress *. 1e9))
          :: !json;
        [
          string_of_int repeat;
          pretty_int total;
          pretty_int nodes;
          Printf.sprintf "%.1fx" ratio;
          pretty_time compressed;
          pretty_time decompress;
          Printf.sprintf "%.2fx" (decompress /. max compressed 1e-9);
        ])
      (sizes [ 1; 8; 64 ] [ 1; 8 ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "Plan.relations over a Db, %d documents of %s bytes each — spanner \
          [abcd]*!x{dcba}[abcd]* \
          (sweep + enumeration vs frozen decompression + Compiled.eval, cold engine each run)"
         ndocs (pretty_int n))
    ~header:[ "repeat"; "Σ|D|"; "|S|"; "ratio"; "compressed"; "decompress"; "speedup" ]
    rows;
  note
    "expected shape: at low ratio the sweep pays matrix products per node and roughly breaks \
     even; as the ratio grows the sweep cost collapses with |S| while decompression stays \
     Θ(Σ|D|).";
  (* shared-base database: every document is base·suffix_i as explicit
     nodes, so the sweep's sharing is structural, not a builder
     accident — matrices computed ≪ 2 × Σ per-document nodes *)
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  let base = Builder.balanced_of_string store (X.string rng "abcd" (1 lsl sc 16 9)) in
  for i = 1 to ndocs do
    let suffix = Builder.balanced_of_string store (X.string rng "abcd" (sc 512 64)) in
    Doc_db.add db (Printf.sprintf "s%02d" i) (Slp.pair store base suffix)
  done;
  let engine = Slp_spanner.of_compiled ct store in
  let roots =
    Array.of_list (List.map (fun name -> Doc_db.find db name) (Doc_db.names db))
  in
  let sweep = time_unit (fun () -> Array.iter (Slp_spanner.prepare engine) roots) in
  let matrices = Slp_spanner.matrices_computed engine in
  let sum_nodes =
    Array.fold_left (fun acc id -> acc + Slp.reachable_size store id) 0 roots
  in
  Array.iter (fun id -> ignore (Cursor.to_relation (Cursor.of_slp engine id))) roots;
  print_table
    ~title:
      (Printf.sprintf
         "shared-base database: %d documents = base(64 KiB)·suffix(512 B) in one store"
         ndocs)
    ~header:[ "Σ per-doc nodes"; "distinct nodes"; "matrices"; "sweep"; "sharing" ]
    [
      [
        pretty_int sum_nodes;
        pretty_int (Doc_db.compressed_size db);
        pretty_int matrices;
        pretty_time sweep;
        Printf.sprintf "%.1fx" (float_of_int (2 * sum_nodes) /. float_of_int matrices);
      ];
    ];
  note
    "the sweep computes 2 matrices per *distinct* node: the shared 64 KiB base is paid once, \
     not %d times." ndocs;
  json :=
    ("e15/shared-matrices", Some (float_of_int matrices))
    :: ("e15/shared-sum-node-matrices", Some (float_of_int (2 * sum_nodes)))
    :: !json;
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E16: streaming cursors (DESIGN.md §2e)                              *)

let e16_cursor () =
  section
    "E16: streaming cursors — first-k answers cost O(k) pulls after preprocessing, \
     independent of how many answers exist (§2.5 constant-delay enumeration)";
  let ct = Compiled.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  let rng = X.create 101 in
  let k = 10 in
  let json = ref [] in
  let rows =
    List.map
      (fun e ->
        let n = 1 lsl e in
        let doc = X.string rng "ab" n in
        let prepare = best_of 3 (fun () -> ignore (Compiled.prepare ct doc)) in
        let p = Compiled.prepare ct doc in
        let tuples = Compiled.cardinal p in
        (* a fresh cursor over the same prepared document each run:
           take-k times only the pulls, never the document pass *)
        let take_k =
          best_of 5 (fun () ->
              ignore (Cursor.to_list (Cursor.take (Cursor.of_compiled p) k)))
        in
        let full = best_of 3 (fun () -> ignore (Cursor.to_relation (Cursor.of_compiled p))) in
        json :=
          (Printf.sprintf "e16/take%d-%d" k n, Some (take_k *. 1e9))
          :: (Printf.sprintf "e16/full-drain-%d" n, Some (full *. 1e9))
          :: !json;
        [
          pretty_int n;
          pretty_time prepare;
          pretty_time take_k;
          pretty_time (take_k /. float_of_int (min k (max 1 tuples)));
          pretty_time full;
          pretty_int tuples;
        ])
      (sizes [ 12; 16; 18 ] [ 8; 10 ])
  in
  print_table
    ~title:
      (Printf.sprintf
         "spanner [ab]*!x{ab}[ab]* — take-%d through a cursor vs draining to a relation \
          (preprocessing excluded from both)"
         k)
    ~header:[ "|D|"; "prepare"; Printf.sprintf "take-%d" k; "delay/tuple"; "full drain"; "tuples" ]
    rows;
  note
    "expected shape: take-%d and its per-tuple delay flat vs |D| (within ~2x); the full \
     drain linear in the answer count, which grows with |D|."
    k;
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E17: cost-based algebraic optimizer (DESIGN.md §2f)                 *)

let e17_algebra () =
  section
    "E17: algebraic optimizer — a Select-free query (projection over a union and a join) \
     fused into one automaton vs operator-at-a-time Algebra.eval; the oracle materialises \
     a quadratic intermediate relation the fused automaton never builds (§2f)";
  let expr =
    Algebra.parse
      "pi[x]((rgx:\"[ab]*!x{a[ab]*b}[ab]*\" & rgx:\"[ab]*!x{ab}[ab]*\") | \
       rgx:\"[ab]*!x{aba}[ab]*\")"
  in
  let rng = X.create 77 in
  let json = ref [] in
  let rows =
    List.map
      (fun e ->
        let n = 1 lsl e in
        let doc = X.string rng "ab" n in
        let plan_t = best_of 3 (fun () -> ignore (Optimizer.optimize ~sample:doc expr)) in
        let plan = Optimizer.optimize ~sample:doc expr in
        let fused = best_of 3 (fun () -> ignore (Optimizer.eval plan doc)) in
        let eval_t = best_of (sc 2 1) (fun () -> ignore (Algebra.eval expr doc)) in
        let tuples = Span_relation.cardinal (Optimizer.eval plan doc) in
        json :=
          (Printf.sprintf "e17/fused-%d" n, Some (fused *. 1e9))
          :: (Printf.sprintf "e17/eval-%d" n, Some (eval_t *. 1e9))
          :: (Printf.sprintf "e17/optimize-%d" n, Some (plan_t *. 1e9))
          :: !json;
        [
          pretty_int n;
          pretty_time plan_t;
          pretty_time fused;
          pretty_time eval_t;
          Printf.sprintf "%.1fx" (eval_t /. max fused 1e-9);
          pretty_int tuples;
          (if Optimizer.fully_fused plan then "one automaton"
           else Printf.sprintf "%d automata" (Optimizer.fused_count plan));
        ])
      (sizes [ 8; 10; 11 ] [ 5; 6 ])
  in
  print_table
    ~title:
      "pi[x]((a[ab]*b & ab) | aba) — optimize + fused drain vs Algebra.eval \
       (document pass and enumeration included in both)"
    ~header:[ "|D|"; "optimize"; "fused drain"; "Algebra.eval"; "speedup"; "tuples"; "plan" ]
    rows;
  note
    "expected shape: the fused drain linear in |D| + answers; Algebra.eval quadratic (its \
     a[ab]*b operand alone yields ~|D|^2/4 intermediate tuples), so the speedup widens \
     with |D|.";
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E18: the spanner service under load (DESIGN.md §2g)                 *)

module Serve_server = Spanner_serve.Server
module Serve_client = Spanner_serve.Client

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))

let e18_serve () =
  section
    "E18: the spanner service — warm-cache request latency vs per-request cold start, \
     concurrent clients, admission-control shedding, and slow-reader isolation (§2g)";
  let doc_bits = sc 8 7 in
  let clients = sc 50 8 in
  let reqs_per_client = sc 40 10 in
  let rng = X.create 4242 in
  let doc = X.string rng "ab" (1 lsl doc_bits) in
  (* a second, larger document for the streaming sections: the
     quadratic spanner on it yields megabytes of tuples, enough to
     fill any socket buffer and to make overload jobs genuinely slow *)
  let doc2 = X.string rng "ab" (1 lsl (doc_bits + 2)) in
  (* a serving-realistic point query: extraction on a small document,
     where the per-request fixed costs a one-shot CLI pays every time
     (process start, parse, optimizer rewrite + compile, document IO)
     dwarf the evaluation itself — exactly what a persistent server
     amortises *)
  let formula = "rgx:\"[ab]*!x{ab}[ab]*\"" in
  let json = ref [] in
  let push k v = json := (k, Some v) :: !json in

  let sock = Printf.sprintf "/tmp/spanner-bench-%d.sock" (Unix.getpid ()) in
  let addr = Serve_server.Unix_socket sock in
  let server =
    Serve_server.start
      { (Serve_server.default_config addr) with Serve_server.queue = 256 }
  in
  let seed = Serve_client.connect addr in
  ignore (Serve_client.request seed (Printf.sprintf "DEFINE q\n%s" formula));
  ignore (Serve_client.request seed (Printf.sprintf "LOAD s DOC d\n%s" doc));
  ignore (Serve_client.request seed (Printf.sprintf "LOAD s DOC d2\n%s" doc2));

  (* --- per-request CLI cold start: the same query through an actual
     spanner_cli subprocess, once per request — process start, parse,
     compile, document read, evaluate, exit.  This is what serving
     without a server costs. *)
  let docfile = Filename.temp_file "spanner-bench-e18" ".txt" in
  let och = open_out docfile in
  output_string och doc;
  close_out och;
  let cli =
    let near =
      Filename.concat
        (Filename.dirname (Filename.dirname Sys.executable_name))
        (Filename.concat "bin" "spanner_cli.exe")
    in
    if Sys.file_exists near then Some near else None
  in
  let cold_cli_t =
    Option.map
      (fun exe ->
        let cmd =
          Printf.sprintf "%s query '%s' -f %s --format first > /dev/null" exe formula docfile
        in
        best_of 5 (fun () -> if Sys.command cmd <> 0 then failwith "cold CLI run failed"))
      cli
  in
  (* --- the same work in-process (no fork/exec), for the breakdown:
     parse, optimizer rewrite + compile, SLP compression, freeze,
     decompress, evaluate the first tuple *)
  let cold_work () =
    let e = Algebra.parse formula in
    let plan = Optimizer.optimize e in
    let db = Doc_db.create () in
    let id = Doc_db.add_string db "d" doc in
    let fz = Doc_db.freeze db in
    let text = Slp.frozen_to_string fz id in
    ignore (Cursor.next (Optimizer.cursor plan text))
  in
  let cold_work_t = best_of 5 cold_work in
  let cold_t = Option.value cold_cli_t ~default:cold_work_t in

  (* --- warm server, one persistent connection: every artefact is
     cached, a request is one round-trip + one cursor pull *)
  let latencies k payload =
    let c = seed in
    Array.init k (fun _ -> time_unit (fun () -> ignore (Serve_client.request c payload)))
  in
  let warm = latencies (sc 400 50) "QUERY q s d format=first" in
  Array.sort compare warm;
  let warm_p50 = percentile warm 0.50 and warm_p99 = percentile warm 0.99 in

  (* --- plan cache, hit vs miss: distinct inline bodies compile every
     time; a repeated body is one LRU probe *)
  let miss_t =
    time_unit (fun () ->
        for i = 0 to 19 do
          ignore
            (Serve_client.request seed
               (Printf.sprintf "QUERY - s d format=count\n[ab]*!x{ab}[ab]*a{0,%d}" (i + 1)))
        done)
    /. 20.
  in
  let hit_t =
    time_unit (fun () ->
        for _ = 0 to 19 do
          ignore (Serve_client.request seed "QUERY - s d format=count\n[ab]*!x{ab}[ab]*a{0,1}")
        done)
    /. 20.
  in

  (* --- open-loop fan-out: [clients] concurrent connections, each
     firing [reqs_per_client] back-to-back queries *)
  let errors = Atomic.make 0 in
  let fanout () =
    let thread _ =
      Thread.create
        (fun () ->
          try
            let c = Serve_client.connect addr in
            for _ = 1 to reqs_per_client do
              match Serve_client.request c "QUERY q s d format=count" with
              | [ one ] when Serve_client.err_code one = None -> ()
              | _ -> Atomic.incr errors
            done;
            Serve_client.close c
          with _ -> Atomic.incr errors)
        ()
    in
    let threads = List.init clients thread in
    List.iter Thread.join threads
  in
  let fan_t = time_unit fanout in
  let total_reqs = clients * reqs_per_client in
  let throughput = float_of_int total_reqs /. fan_t in

  (* --- slow-reader isolation: a client opens a huge stream (the
     quadratic spanner), reads only the header, and stalls; its
     session thread blocks on the socket buffer while a second client
     keeps querying — the stall must not move the fast path *)
  ignore (Serve_client.request seed "DEFINE big\n[ab]*!x{a[ab]*b}[ab]*");
  let slow_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Unix.connect slow_fd (ADDR_UNIX sock);
  let slow = Spanner_serve.Protocol.conn_of_fd slow_fd in
  Spanner_serve.Protocol.write_frame_conn slow "QUERY big s d2";
  (* read only the stream header, then stall: the session thread
     serving this stream blocks once the socket buffer fills *)
  ignore (Spanner_serve.Protocol.read_frame_conn slow);
  let stalled = latencies (sc 200 30) "QUERY q s d format=first" in
  Array.sort compare stalled;
  let stalled_p50 = percentile stalled 0.50 in
  (try Unix.close slow_fd with _ -> ());

  ignore (Serve_client.request seed "STATS");
  ignore (Serve_client.request seed "SHUTDOWN");
  Serve_client.close seed;
  Serve_server.wait server;

  (* --- overload: a one-worker, two-slot server flooded with slow
     queries must shed cleanly (ERR 3) and never hang *)
  let sock2 = Printf.sprintf "/tmp/spanner-bench-ovl-%d.sock" (Unix.getpid ()) in
  let addr2 = Serve_server.Unix_socket sock2 in
  let server2 =
    Serve_server.start
      {
        (Serve_server.default_config addr2) with
        Serve_server.workers = Some 1;
        queue = 2;
      }
  in
  let c2 = Serve_client.connect addr2 in
  ignore (Serve_client.request c2 "DEFINE big\n[ab]*!x{a[ab]*b}[ab]*");
  ignore (Serve_client.request c2 (Printf.sprintf "LOAD s DOC d\n%s" doc2));
  Serve_client.close c2;
  let shed = Atomic.make 0 and answered = Atomic.make 0 in
  let flood_threads =
    List.init (sc 16 6) (fun _ ->
        Thread.create
          (fun () ->
            try
              let c = Serve_client.connect addr2 in
              (match Serve_client.request c "QUERY big s d format=count" with
              | [ one ] when Serve_client.err_code one = Some 3 -> Atomic.incr shed
              | _ -> Atomic.incr answered);
              Serve_client.close c
            with _ -> ())
          ())
  in
  List.iter Thread.join flood_threads;
  let c2 = Serve_client.connect addr2 in
  ignore (Serve_client.request c2 "SHUTDOWN");
  Serve_client.close c2;
  Serve_server.wait server2;

  (try Sys.remove docfile with Sys_error _ -> ());
  push "e18/cold-start" (cold_t *. 1e9);
  push "e18/cold-work" (cold_work_t *. 1e9);
  push "e18/warm-p50" (warm_p50 *. 1e9);
  push "e18/warm-p99" (warm_p99 *. 1e9);
  push "e18/plan-miss" (miss_t *. 1e9);
  push "e18/plan-hit" (hit_t *. 1e9);
  push (Printf.sprintf "e18/throughput-rps-%dc" clients) throughput;
  push "e18/stalled-p50" (stalled_p50 *. 1e9);
  push "e18/shed" (float_of_int (Atomic.get shed));
  print_table ~title:(Printf.sprintf "service vs cold start, |D| = %d" (1 lsl doc_bits))
    ~header:[ "metric"; "value" ]
    [
      [
        (match cold_cli_t with
        | Some _ -> "per-request CLI cold start (fork+exec spanner_cli)"
        | None -> "per-request cold start (CLI missing; in-process work)");
        pretty_time cold_t;
      ];
      [ "  of which query work (parse+compile+compress+eval)"; pretty_time cold_work_t ];
      [ "warm request p50"; pretty_time warm_p50 ];
      [ "warm request p99"; pretty_time warm_p99 ];
      [ "speedup p50 vs cold"; Printf.sprintf "%.0fx" (cold_t /. max warm_p50 1e-9) ];
      [ "inline query, plan-cache miss"; pretty_time miss_t ];
      [ "inline query, plan-cache hit"; pretty_time hit_t ];
      [
        Printf.sprintf "%d clients x %d requests" clients reqs_per_client;
        Printf.sprintf "%s (%.0f req/s)" (pretty_time fan_t) throughput;
      ];
      [ "client errors under fan-out"; pretty_int (Atomic.get errors) ];
      [ "p50 beside a stalled streaming reader"; pretty_time stalled_p50 ];
      [
        "overload (1 worker, queue 2)";
        Printf.sprintf "%d shed / %d answered" (Atomic.get shed) (Atomic.get answered);
      ];
    ];
  note
    "expected shape: warm p50 at least 10x below the per-request CLI cold start (the \
     acceptance bar) — the server amortises process start, parsing, compilation and \
     document IO across requests; the stalled-reader p50 within noise of the plain warm \
     p50; overload sheds with status 3 instead of queueing without bound.";
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E19: the serve stack under deterministic fault injection            *)

module Fault = Spanner_util.Fault

let e19_chaos () =
  section
    "E19: chaos — availability and error taxonomy under seeded fault injection across \
     the serve stack, worker-domain restarts, and the faults-off p50 baseline (§2h)";
  let doc_bits = sc 8 7 in
  let clients = sc 16 4 in
  let reqs_per_client = sc 40 10 in
  let rng = X.create 1717 in
  let doc = X.string rng "ab" (1 lsl doc_bits) in
  let json = ref [] in
  let push k v = json := (k, Some v) :: !json in

  let sock = Printf.sprintf "/tmp/spanner-bench-chaos-%d.sock" (Unix.getpid ()) in
  let addr = Serve_server.Unix_socket sock in
  let server =
    Serve_server.start
      {
        (Serve_server.default_config addr) with
        Serve_server.workers = Some 2;
        queue = 64;
        io_timeout_ms = 5000;
        idle_timeout_ms = 10000;
        drain_ms = 2000;
      }
  in
  let seed = Serve_client.connect ~timeout_ms:5000 addr in
  let req ?(attempts = 6) p = Serve_client.request ~attempts ~backoff_ms:2 seed p in
  ignore (req (Printf.sprintf "DEFINE q\n%s" "rgx:\"[ab]*!x{ab}[ab]*\""));
  ignore (req (Printf.sprintf "LOAD s DOC d\n%s" doc));

  (* --- faults off: warm request p50 on the instrumented stack.  The
     acceptance bar is that this sits within noise of e18/warm-p50 —
     every disarmed probe is one field load and a never-taken branch. *)
  let off =
    Array.init
      (sc 400 50)
      (fun _ -> time_unit (fun () -> ignore (req "QUERY q s d format=first")))
  in
  Array.sort compare off;
  let p50_off = percentile off 0.50 in
  (* the faults-off answer is the oracle every later reply is held to *)
  let expected =
    match req "QUERY q s d format=count" with
    | [ one ] when Serve_client.err_code one = None -> one
    | _ -> failwith "E19: faults-off baseline query failed"
  in

  (* --- arm moderate fault rates at every serve-stack site and fan
     out.  The client retries transient failures (idempotent verbs
     only) with exponential backoff; every reply that arrives must be
     either the exact answer or a typed ERR — the taxonomy below
     counts silent wrong answers as a distinct (expected-zero) bucket. *)
  Fault.configure ~seed:1717
    [
      { Fault.site = "serve.read"; prob = 0.10; behavior = Fault.Eintr };
      { Fault.site = "serve.write"; prob = 0.05; behavior = Fault.Short };
      { Fault.site = "session.request"; prob = 0.03; behavior = Fault.Exn };
      { Fault.site = "scheduler.worker"; prob = 0.05; behavior = Fault.Exn };
    ];
  let ok = Atomic.make 0
  and typed_err = Atomic.make 0
  and transport = Atomic.make 0
  and wrong = Atomic.make 0 in
  let fanout () =
    let thread _ =
      Thread.create
        (fun () ->
          let c = try Some (Serve_client.connect ~timeout_ms:5000 addr) with _ -> None in
          match c with
          | None -> for _ = 1 to reqs_per_client do Atomic.incr transport done
          | Some c ->
              for _ = 1 to reqs_per_client do
                match Serve_client.request ~attempts:8 ~backoff_ms:2 c "QUERY q s d format=count" with
                | [ one ] when Serve_client.err_code one = None ->
                    if one = expected then Atomic.incr ok else Atomic.incr wrong
                | frames
                  when frames <> []
                       && Serve_client.err_code (List.nth frames (List.length frames - 1))
                          <> None ->
                    Atomic.incr typed_err
                | _ -> Atomic.incr wrong
                | exception _ -> Atomic.incr transport
              done;
              (try Serve_client.close c with _ -> ()))
        ()
    in
    let threads = List.init clients thread in
    List.iter Thread.join threads
  in
  let fan_t = time_unit fanout in
  let injected = Fault.injected_total () in

  (* restarts come out of STATS; under faults the request itself can
     draw an injected typed error, so re-ask until a real stats frame
     lands *)
  let stats =
    let rec go n =
      if n = 0 then ""
      else
        match req ~attempts:8 "STATS" with
        | frames ->
            let s = String.concat "\n" frames in
            if String.length s >= 8 && String.sub s 0 8 = "OK stats" then s else go (n - 1)
        | exception _ -> go (n - 1)
    in
    go 50
  in
  let stat_field key =
    let needle = key ^ "=" in
    let nl = String.length needle and sl = String.length stats in
    let rec find i =
      if i + nl > sl then 0
      else if String.sub stats i nl = needle then (
        let k = ref (i + nl) and v = ref 0 in
        while !k < sl && stats.[!k] >= '0' && stats.[!k] <= '9' do
          v := (10 * !v) + (Char.code stats.[!k] - Char.code '0');
          incr k
        done;
        !v)
      else find (i + 1)
    in
    find 0
  in
  let restarts = stat_field "restarts" in

  (* --- disarm and verify the stack settles back to exact answers *)
  Fault.disable ();
  let settled = match req "QUERY q s d format=count" with [ one ] -> one = expected | _ -> false in
  ignore (req "SHUTDOWN");
  Serve_client.close seed;
  Serve_server.wait server;

  let attempted = clients * reqs_per_client in
  let availability =
    100. *. float_of_int (Atomic.get ok) /. float_of_int (max attempted 1)
  in
  push "e19/warm-p50-faults-off" (p50_off *. 1e9);
  push "e19/availability-pct" availability;
  push "e19/errors-typed" (float_of_int (Atomic.get typed_err));
  push "e19/errors-transport" (float_of_int (Atomic.get transport));
  push "e19/errors-wrong-answer" (float_of_int (Atomic.get wrong));
  push "e19/restarts" (float_of_int restarts);
  push "e19/injected" (float_of_int injected);
  print_table
    ~title:
      (Printf.sprintf
         "serve stack under seed-1717 faults: read=eintr@0.10 write=short@0.05 \
          request=exn@0.03 worker=exn@0.05 (%d clients x %d requests)"
         clients reqs_per_client)
    ~header:[ "metric"; "value" ]
    [
      [ "warm p50, faults off (vs e18/warm-p50)"; pretty_time p50_off ];
      [ "availability (exact answers)"; Printf.sprintf "%.1f%%" availability ];
      [ "typed errors (ERR n on the wire)"; pretty_int (Atomic.get typed_err) ];
      [ "transport failures (after client retries)"; pretty_int (Atomic.get transport) ];
      [ "wrong answers"; pretty_int (Atomic.get wrong) ];
      [ "worker-domain restarts"; pretty_int restarts ];
      [ "faults injected"; pretty_int injected ];
      [ "fan-out wall time"; pretty_time fan_t ];
      [ "exact answer after disarm"; (if settled then "yes" else "NO") ];
    ];
  note
    "expected shape: the faults-off p50 within noise of e18/warm-p50 (disarmed probes \
     are free); availability well above 90%% with every degraded reply a typed ERR and \
     zero wrong answers; restarts > 0 with the pool back at full strength (STATS still \
     reports workers=2); exact answers resume the moment faults disarm.";
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E20: zero-copy arena stores (DESIGN.md §2i)                         *)

module Serialize = Spanner_slp.Serialize
module Arena = Spanner_store.Arena
module Corpus = Spanner_store.Corpus

let e20_store () =
  section
    "E20: zero-copy arena stores — mmap cold start vs SLPDB deserialization, batch \
     throughput over the mapped columns, and shard-parallel scaling (§2i)";
  let doc_bits = sc 16 8 in
  let ndocs = sc 64 4 in
  let rng = X.create 2026 in
  (* corpus shape for the cold-start scenario: one tiny hot document
     next to many large cold ones.  A point lookup on the hot doc is
     where load cost dominates — the SLPDB reader deserializes the
     whole multi-MB corpus to answer it, the arena maps the file and
     touches only the hot doc's pages. *)
  let db = Doc_db.create () in
  ignore (Doc_db.add_string db "hot" "abababab");
  for i = 1 to ndocs do
    ignore (Doc_db.add_string db (Printf.sprintf "doc%02d" i) (X.string rng "ab" (1 lsl doc_bits)))
  done;
  let dir = Filename.temp_file "spanner-bench-e20" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let slpdb = Filename.concat dir "corpus.slpdb" in
  Serialize.write_file db slpdb;
  let arena1 = Filename.concat dir "corpus.slpar" in
  ignore (Corpus.pack db ~shards:1 arena1);
  let ct = Compiled.of_formula (Regex_formula.parse ".*!x{ab}.*") in
  let json = ref [] in
  let push k v = json := (k, Some v) :: !json in

  (* --- cold-start time-to-first-tuple on the hot document *)
  let first_tuple text =
    match Cursor.next (Cursor.of_compiled (Compiled.prepare ct text)) with
    | Some _ -> ()
    | None -> failwith "hot document lost its tuples"
  in
  let ttft_slpdb =
    best_of 3 (fun () ->
        let db = Serialize.read_file slpdb in
        let fz = Doc_db.freeze db in
        first_tuple (Slp.frozen_to_string fz (Doc_db.find db "hot")))
  in
  let ttft_arena =
    best_of 3 (fun () ->
        let c = Corpus.open_path arena1 in
        let si, root = Option.get (Corpus.find c "hot") in
        first_tuple (Slp.frozen_to_string (Arena.frozen_view (Corpus.shards c).(si)) root))
  in
  let load_slpdb = best_of 3 (fun () -> ignore (Serialize.read_file slpdb)) in
  let load_arena = best_of 3 (fun () -> ignore (Corpus.open_path arena1)) in

  (* --- batch throughput: the full corpus through Plan.relations,
     heap Db vs mapped corpus (both take the compressed sweep) *)
  let check_total results =
    Array.fold_left
      (fun acc (_, r) ->
        match r with Ok rel -> acc + Span_relation.cardinal rel | Error e -> raise e)
      0 results
  in
  let batch_heap_total = ref 0 and batch_arena_total = ref 0 in
  let batch_heap =
    let p = Plan.make ~force:`Compressed ct (Plan.Db db) in
    best_of 3 (fun () -> batch_heap_total := check_total (Plan.relations p))
  in
  let corpus1 = Corpus.open_path arena1 in
  let batch_arena =
    let p = Plan.make ~force:`Compressed ct (Plan.Packed corpus1) in
    best_of 3 (fun () -> batch_arena_total := check_total (Plan.relations p))
  in
  if !batch_heap_total <> !batch_arena_total then
    failwith "arena batch disagrees with heap batch";

  (* --- shard-parallel scaling: same corpus split 1/2/4 ways,
     evaluated with 4 domains.  A longer literal keeps the result set
     tiny, isolating the matrix sweep — the serial phase that
     sharding parallelizes (enumeration already fans out per document
     at any shard count). *)
  let ct_sweep = Compiled.of_formula (Regex_formula.parse ".*!x{aaaaaaaaaaaa}.*") in
  let shard_times =
    List.map
      (fun shards ->
        let path = Filename.concat dir (Printf.sprintf "sharded%d" shards) in
        ignore (Corpus.pack db ~shards path);
        let c = Corpus.open_path path in
        let p = Plan.make ~force:`Compressed ct_sweep (Plan.Packed c) in
        let t = best_of 3 (fun () -> ignore (check_total (Plan.relations ~jobs:4 p))) in
        (shards, t))
      [ 1; 2; 4 ]
  in

  let corpus_bytes = (Unix.stat slpdb).Unix.st_size in
  push "e20/ttft-slpdb" (ttft_slpdb *. 1e9);
  push "e20/ttft-arena" (ttft_arena *. 1e9);
  push "e20/ttft-speedup" (ttft_slpdb /. max ttft_arena 1e-9);
  push "e20/load-slpdb" (load_slpdb *. 1e9);
  push "e20/load-arena" (load_arena *. 1e9);
  push "e20/batch-heap" (batch_heap *. 1e9);
  push "e20/batch-arena" (batch_arena *. 1e9);
  List.iter
    (fun (shards, t) -> push (Printf.sprintf "e20/batch-%dshard-4jobs" shards) (t *. 1e9))
    shard_times;
  print_table
    ~title:
      (Printf.sprintf "cold start and batch over %d docs (%s SLPDB on disk)" (ndocs + 1)
         (pretty_int corpus_bytes))
    ~header:[ "metric"; "value" ]
    ([
       [ "SLPDB cold start to first tuple (hot doc)"; pretty_time ttft_slpdb ];
       [ "arena cold start to first tuple (hot doc)"; pretty_time ttft_arena ];
       [ "cold-start speedup"; Printf.sprintf "%.0fx" (ttft_slpdb /. max ttft_arena 1e-9) ];
       [ "  SLPDB load alone"; pretty_time load_slpdb ];
       [ "  arena open alone"; pretty_time load_arena ];
       [
         "batch sweep, heap store";
         Printf.sprintf "%s (%s tuples)" (pretty_time batch_heap) (pretty_int !batch_heap_total);
       ];
       [ "batch sweep, mapped arena"; pretty_time batch_arena ];
     ]
    @ List.map
        (fun (shards, t) ->
          [ Printf.sprintf "batch, %d shard(s), 4 domains" shards; pretty_time t ])
        shard_times);
  note
    "expected shape: arena cold start at least 50x below the SLPDB reader on a multi-MB \
     corpus (the acceptance bar) — open is O(1) in corpus size (header + doc table, no \
     node deserialization) while SLPDB parses every node; the mapped batch within noise \
     of the heap batch (same sweep, different backing); multi-shard batches beating one \
     shard ON A MULTI-CORE BOX, since shards sweep in parallel instead of serializing \
     behind one engine — on a single core the domains time-slice and the rows are flat, \
     with each extra shard adding only its fixed sweep overhead.";
  List.rev !json

(* ------------------------------------------------------------------ *)
(* E21: compressed-domain constant delay (DESIGN.md §2j)               *)

let e21_delay () =
  section
    "E21: compressed-domain constant delay — the native SLP cursor's take-10 per-tuple \
     delay and time-to-first-tuple across doubling documents at compression ratio >= 100 \
     (§2j)";
  let rng = X.create 1452 in
  let wlen = sc 20 6 in
  let words = List.init (sc 18 4) (fun _ -> X.string rng "ab" wlen) in
  let word s =
    String.fold_left
      (fun acc c -> Regex_formula.concat acc (Regex_formula.char c))
      Regex_formula.epsilon s
  in
  let dict =
    List.fold_left
      (fun acc w -> Regex_formula.alt acc (word w))
      (word (List.hd words))
      (List.tl words)
  in
  let pad = Regex_formula.star (Regex_formula.chars (Spanner_fa.Charset.of_string "ab")) in
  let f =
    Regex_formula.concat pad (Regex_formula.concat (Regex_formula.bind (v "x") dict) pad)
  in
  (* the dictionary NFA is ambiguous, but Compiled.of_evset's subset
     construction fits under its cap: the engine runs the deterministic
     automaton, whose runs are the tuples, so the cursor never
     deduplicates (the note below prints which form ran) *)
  let ct = Compiled.of_evset (Evset.of_formula f) in
  let store = Slp.create_store () in
  let clen = sc 256 64 in
  let chunk_s =
    X.string rng "ab" (clen / 2) ^ List.hd words ^ X.string rng "ab" ((clen / 2) - wlen)
  in
  let rec lg n = if n <= 1 then 0 else 1 + lg (n / 2) in
  (* one planted-match chunk, then pure doubling: len 2^e at ~100 nodes *)
  let exps = sizes [ 22; 24; 26; 28 ] [ 14; 16 ] in
  let roots =
    let r = ref (Builder.balanced_of_string store chunk_s) in
    let cur = ref (lg clen) in
    List.map
      (fun e ->
        while !cur < e do
          r := Slp.pair store !r !r;
          incr cur
        done;
        (e, !r))
      exps
  in
  let engine = Slp_spanner.of_compiled ct store in
  let k = 10 in
  let json = ref [] in
  let rows =
    List.map
      (fun (e, root) ->
        (* later roots share every subtree of earlier ones, so each
           prepare only sweeps the new doubling spine *)
        let prepare = time_unit (fun () -> Slp_spanner.prepare engine root) in
        let len = 1 lsl e in
        let nodes = Slp.reachable_size store root in
        let ttft =
          best_of 20 (fun () ->
              let c = Cursor.of_slp engine root in
              ignore (Cursor.next c))
        in
        let take_k =
          best_of 20 (fun () ->
              ignore (Cursor.to_list (Cursor.take (Cursor.of_slp engine root) k)))
        in
        json :=
          (Printf.sprintf "e21/ttft-native-%d" len, Some (ttft *. 1e9))
          :: ( Printf.sprintf "e21/take%d-perTuple-%d" k len,
               Some (take_k *. 1e9 /. float_of_int k) )
          :: !json;
        [
          pretty_int len;
          pretty_int nodes;
          pretty_int (len / nodes);
          pretty_time prepare;
          pretty_time ttft;
          pretty_time take_k;
          pretty_time (take_k /. float_of_int k);
        ])
      roots
  in
  print_table
    ~title:
      (Printf.sprintf
         "pad.!x{dict of %d words}.pad over a doubling SLP — take-%d through the native \
          cursor (preprocessing excluded)"
         (List.length words) k)
    ~header:
      [ "|D|"; "nodes"; "ratio"; "prepare"; "ttft"; Printf.sprintf "take-%d" k; "delay/tuple" ]
    rows;
  note "compiled: %s" (Compiled.describe ct);
  note
    "expected shape: per-tuple take-%d delay flat (within 2x) from 4 MB to 256 MB — the \
     per-pull work is one fused split scan per grammar level (plus dedup, had the subset \
     construction fallen back to the ambiguous automaton as built), none of it a function \
     of |D|."
    k;
  List.rev !json

(* ------------------------------------------------------------------ *)
(* A: ablations of design choices                                      *)

let a1_join_strategy () =
  section "A1 (ablation): relational join — hash join vs nested loops";
  let x = v "x" and y = v "y" in
  let rng = X.create 55 in
  let rows =
    List.map
      (fun size ->
        let mk_rel var =
          Span_relation.of_list
            (vs [ x; y ])
            (List.init size (fun _ ->
                 Span_tuple.of_list
                   [
                     (var, Span.make (1 + X.int rng 50) 60);
                     ((if Variable.equal var x then y else x), Span.make (1 + X.int rng 50) 60);
                   ]))
        in
        let r1 = mk_rel x and r2 = mk_rel y in
        let hash_time = best_of 3 (fun () -> ignore (Span_relation.join r1 r2)) in
        let nested_time =
          best_of 3 (fun () ->
              (* nested-loop baseline *)
              let acc = ref [] in
              List.iter
                (fun t1 ->
                  List.iter
                    (fun t2 ->
                      if Span_tuple.compatible t1 t2 then acc := Span_tuple.merge t1 t2 :: !acc)
                    (Span_relation.tuples r2))
                (Span_relation.tuples r1);
              ignore
                (Span_relation.of_list
                   (Variable.Set.union (Span_relation.schema r1) (Span_relation.schema r2))
                   !acc))
        in
        [
          pretty_int size;
          pretty_time hash_time;
          pretty_time nested_time;
          Printf.sprintf "%.1fx" (nested_time /. max hash_time 1e-9);
        ])
      (sizes [ 100; 400; 1600 ] [ 50; 100 ])
  in
  print_table ~title:"join of two random relations (shared variables x, y)"
    ~header:[ "tuples/side"; "hash join"; "nested loops"; "ratio" ]
    rows

let a2_balanced_editing () =
  section "A2 (ablation): why CDE needs strong balance — AVL concat vs naive pairing";
  let rows =
    List.map
      (fun appends ->
        let store = Slp.create_store () in
        let block = Builder.balanced_of_string store "abcdefgh" in
        (* naive: plain pairs → left comb of depth [appends] *)
        let naive = ref block in
        for _ = 1 to appends do
          naive := Slp.pair store !naive block
        done;
        (* balanced: AVL concat *)
        let balanced = ref block in
        for _ = 1 to appends do
          balanced := Balance.concat store !balanced block
        done;
        let n = Slp.len store !naive in
        let probe id = best_of 3 (fun () -> ignore (Slp.char_at store id (n / 2))) in
        [
          pretty_int appends;
          string_of_int (Slp.order store !naive);
          string_of_int (Slp.order store !balanced);
          pretty_time (probe !naive);
          pretty_time (probe !balanced);
        ])
      (sizes [ 256; 1024; 4096; 16384 ] [ 64; 256 ])
  in
  print_table ~title:"random access after n appends"
    ~header:[ "appends"; "naive order"; "AVL order"; "naive char_at"; "AVL char_at" ]
    rows;
  note "expected shape: naive depth (and access cost) linear in appends; AVL logarithmic."

let a3_equality_strategy () =
  section "A3 (ablation): string-equality filtering — SLP fingerprints vs decompress + hash";
  let rows =
    List.map
      (fun k ->
        let store = Slp.create_store () in
        let id = Builder.repeat store "ab;" (1 lsl k) in
        let n = Slp.len store id in
        let h = Spanner_slp.Slp_hash.create store in
        (* compare the two halves of the document *)
        let fingerprint =
          best_of 3 (fun () ->
              ignore (Spanner_slp.Slp_hash.factor_equal h id (1, (n / 2) + 1) ((n / 2) + 1, n + 1)))
        in
        let decompress =
          best_of 3 (fun () ->
              let doc = Slp.to_string store id in
              let sh = Spanner_util.Strhash.make doc in
              ignore (Spanner_util.Strhash.equal_sub sh 0 (n / 2) (n / 2)))
        in
        [ pretty_int n; pretty_time fingerprint; pretty_time decompress ])
      (sizes [ 8; 12; 16; 20 ] [ 6; 8 ])
  in
  print_table ~title:"half-vs-half factor equality on (ab;)^k"
    ~header:[ "|D|"; "SLP fingerprint"; "decompress + rolling hash" ]
    rows;
  note "expected shape: fingerprints O(log |D|) and flat; decompression linear."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment family      *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (OLS estimates, one per experiment family)";
  let open Bechamel in
  let open Toolkit in
  let rng = X.create 77 in
  let doc4k = X.string rng "ab" (sc 4096 256) in
  let e1_auto = Evset.of_formula (Regex_formula.parse "[ab]*!x{ab}[ab]*") in
  let e2_core =
    Core_spanner.simplify
      (Algebra.Select (vs [ v "bm1"; v "bm2" ], Algebra.formula "!bm1{[ab]*}!bm2{[ab]*}"))
  in
  let e4_refl = Refl_spanner.parse "!x{[ab]+}c!y{&x}" in
  let e4_doc = doc4k ^ "c" ^ doc4k in
  let e4_tuple =
    Span_tuple.of_list [ (v "x", Span.make 1 4097); (v "y", Span.make 4098 8194) ]
  in
  let e5_store = Slp.create_store () in
  let e5_id = Builder.repeat e5_store "ab" (1 lsl sc 16 8) in
  let e5_nfa = Nfa.of_regex (Regex.parse "(ab)*") in
  let e7_db = Doc_db.create () in
  let e7_id = Builder.repeat (Doc_db.store e7_db) "ab" (1 lsl sc 15 8) in
  Doc_db.add e7_db "base" e7_id;
  let e7_n = Slp.len (Doc_db.store e7_db) e7_id in
  let e7_expr =
    Cde.Insert (Cde.Doc "base", Cde.Extract (Cde.Doc "base", e7_n / 4, e7_n / 2), e7_n / 3)
  in
  let e1_ct = Compiled.of_evset e1_auto in
  let e12_plan =
    Plan.make e1_ct
      (Plan.Docs
         (Array.init (sc 16 4) (fun i -> (string_of_int i, X.string rng "ab" (sc 4096 256 + i)))))
  in
  let tests =
    [
      Test.make ~name:"e1/prepare-4k"
        (Staged.stage (fun () -> Compiled.prepare (Compiled.of_evset e1_auto) doc4k));
      Test.make ~name:"e1/compiled-prepare-4k"
        (Staged.stage (fun () -> Compiled.prepare e1_ct doc4k));
      Test.make ~name:"e12/batch-16x4k-seq"
        (Staged.stage (fun () -> Plan.relations ~jobs:1 e12_plan));
      Test.make ~name:"e12/batch-16x4k-par" (Staged.stage (fun () -> Plan.relations e12_plan));
      Test.make ~name:"e2/core-eval-square-12"
        (Staged.stage (fun () -> Core_spanner.eval e2_core "abababababab"));
      Test.make ~name:"e4/refl-modelcheck-8k"
        (Staged.stage (fun () -> Refl_spanner.model_check e4_refl e4_doc e4_tuple));
      Test.make ~name:"e5/slp-accept-131k"
        (Staged.stage (fun () ->
             let cache = Accept.make_cache e5_nfa e5_store in
             Accept.accepts cache e5_id));
      Test.make ~name:"e6/slp-prepare-131k"
        (Staged.stage (fun () ->
             let engine = Slp_spanner.create e1_auto e5_store in
             Slp_spanner.prepare engine e5_id));
      Test.make ~name:"e7/cde-update-65k" (Staged.stage (fun () -> Cde.eval e7_db e7_expr));
    ]
  in
  let grouped = Test.make_grouped ~name:"spanners" tests in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second (sc 0.5 0.05)) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with Some [ est ] -> Some est | _ -> None
      in
      rows := (name, estimate) :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_table ~title:"OLS time-per-run estimates" ~header:[ "benchmark"; "time/run" ]
    (List.map
       (fun (name, estimate) ->
         [
           name;
           (match estimate with Some est -> pretty_time (est /. 1e9) | None -> "n/a");
         ])
       rows);
  rows

(* [write_json file rows] dumps the OLS estimates as a flat JSON object
   mapping benchmark name to ns/run, for machine consumption
   (regression tracking across commits). *)
let write_json file rows =
  let entries = List.filter_map (fun (name, est) -> Option.map (fun e -> (name, e)) est) rows in
  let oc = open_out file in
  output_string oc "{\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  %S: %.2f%s\n" name ns
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  note "wrote %d OLS estimates (ns/run) to %s" (List.length entries) file

(* ------------------------------------------------------------------ *)
(* Registry + CLI                                                      *)

type experiment = {
  id : string;  (* --only key: "F1", "E12", "A2", "OLS" *)
  run : unit -> (string * float option) list;  (* [] when no JSON rows *)
  json : string option;  (* fixed-name JSON sink, written under --json *)
}

let silent f () =
  f ();
  []

let registry =
  [
    { id = "F1"; run = silent figure1; json = None };
    { id = "E1"; run = silent e1_enumeration; json = None };
    { id = "E2"; run = silent e2_regular_vs_core; json = None };
    { id = "E3"; run = silent e3_core_expressiveness; json = None };
    { id = "E4"; run = silent e4_refl_vs_core; json = None };
    { id = "E5"; run = silent e5_slp_accept; json = None };
    { id = "E6"; run = silent e6_slp_enumeration; json = None };
    { id = "E7"; run = silent e7_cde_updates; json = None };
    { id = "E8"; run = silent e8_balancing; json = None };
    { id = "E9"; run = silent e9_core_over_slp; json = None };
    { id = "E10"; run = silent e10_context_free; json = None };
    { id = "E11"; run = silent e11_datalog; json = None };
    { id = "E12"; run = silent e12_compiled_engine; json = None };
    { id = "E13"; run = e13_incremental; json = Some "BENCH_incr.json" };
    { id = "E14"; run = e14_robustness; json = Some "BENCH_robust.json" };
    { id = "E15"; run = e15_compressed_batch; json = Some "BENCH_slp.json" };
    { id = "E16"; run = e16_cursor; json = Some "BENCH_cursor.json" };
    { id = "E17"; run = e17_algebra; json = Some "BENCH_algebra.json" };
    { id = "E18"; run = e18_serve; json = Some "BENCH_serve.json" };
    { id = "E19"; run = e19_chaos; json = Some "BENCH_robust.json" };
    { id = "E20"; run = e20_store; json = Some "BENCH_store.json" };
    { id = "E21"; run = e21_delay; json = Some "BENCH_cursor.json" };
    { id = "A1"; run = silent a1_join_strategy; json = None };
    { id = "A2"; run = silent a2_balanced_editing; json = None };
    { id = "A3"; run = silent a3_equality_strategy; json = None };
    { id = "OLS"; run = bechamel_suite; json = None };
  ]

let usage = "usage: main.exe [--json FILE] [--only ID,ID,...] [--smoke]"

let () =
  let json_file = ref None in
  let only = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_args rest
    | [ "--json" ] ->
        Printf.eprintf "--json needs a FILE operand (%s)\n" usage;
        exit 2
    | "--only" :: ids :: rest ->
        only :=
          Some
            (String.split_on_char ',' ids |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> List.map String.uppercase_ascii);
        parse_args rest
    | [ "--only" ] ->
        Printf.eprintf "--only needs a comma-separated list of experiment ids (%s)\n" usage;
        exit 2
    | "--smoke" :: rest ->
        smoke := true;
        parse_args rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s (%s)\n" arg usage;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let selected =
    match !only with
    | None -> registry
    | Some ids ->
        List.iter
          (fun id ->
            if not (List.exists (fun e -> e.id = id) registry) then (
              Printf.eprintf "unknown experiment %s (known: %s)\n" id
                (String.concat ", " (List.map (fun e -> e.id) registry));
              exit 2))
          ids;
        List.filter (fun e -> List.mem e.id ids) registry
  in
  note "Document Spanners — benchmark harness (see DESIGN.md section 2 and EXPERIMENTS.md)";
  if !smoke then note "smoke mode: tiny sizes, sanity only — timings are not meaningful";
  (* experiments can share a JSON sink (E14 and E19 both extend
     BENCH_robust.json), so rows accumulate per file and each file is
     written once at the end instead of per experiment *)
  let sinks = ref [] in
  let accumulate file rows =
    match List.assoc_opt file !sinks with
    | Some prev -> sinks := (file, prev @ rows) :: List.remove_assoc file !sinks
    | None -> sinks := (file, rows) :: !sinks
  in
  List.iter
    (fun e ->
      let rows = e.run () in
      match !json_file with
      | None -> ()
      | Some ols_file -> (
          match e.json with
          | Some file -> accumulate file rows
          | None -> if e.id = "OLS" then accumulate ols_file rows))
    selected;
  List.iter (fun (file, rows) -> write_json file rows) (List.rev !sinks);
  note "\nall experiments completed."
