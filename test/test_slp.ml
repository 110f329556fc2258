(* Tests for the SLP layer (§4): node store, builders, Figure 1,
   balancing (§4.1), CDE editing (§4.3), NFA acceptance via matrices
   (§4.2), and compressed spanner enumeration (§4.2). *)

open Spanner_core
open Spanner_slp
module X = Spanner_util.Xoshiro
module Regex = Spanner_fa.Regex
module Nfa = Spanner_fa.Nfa
module Cursor = Spanner_engine.Cursor
module Limits = Spanner_util.Limits

let check = Alcotest.check
let tc = Alcotest.test_case
let v = Variable.of_string

(* ------------------------------------------------------------------ *)
(* Store *)

let store_hashcons () =
  let store = Slp.create_store () in
  let a = Slp.leaf store 'a' and b = Slp.leaf store 'b' in
  check Alcotest.int "leaves interned" a (Slp.leaf store 'a');
  let p1 = Slp.pair store a b and p2 = Slp.pair store a b in
  check Alcotest.int "pairs interned" p1 p2;
  check Alcotest.bool "different pair differs" true (Slp.pair store b a <> p1);
  check Alcotest.int "len leaf" 1 (Slp.len store a);
  check Alcotest.int "len pair" 2 (Slp.len store p1);
  check Alcotest.int "order leaf" 1 (Slp.order store a);
  check Alcotest.int "order pair" 2 (Slp.order store p1);
  check Alcotest.int "balance" 0 (Slp.balance store p1)

(* Doubling chains from a short base cross 2^62: every length up to
   max_int is exact, and the first pair past it raises a typed error
   and creates no node. *)
let prop_length_overflow =
  QCheck2.Test.make ~name:"pair: exact lengths up to max_int, typed error past it" ~count:200
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_range 1 7) (int_range 1 7))
    (fun (b, extra) ->
      let store = Slp.create_store () in
      let tail = Slp.of_string store (String.make extra 'b') in
      (* the exact sum, or [None] past max_int *)
      let sum x y = if x <= max_int - y then Some (x + y) else None in
      let pairs_to l r expected =
        let size = Slp.store_size store in
        match (Slp.pair store l r, expected) with
        | id, Some n -> Slp.len store id = n
        | _, None -> false
        | exception Limits.Spanner_error (Limits.Eval_failure _) ->
            expected = None && Slp.store_size store = size
      in
      let rec climb id len =
        pairs_to id tail (sum len extra)
        &&
        match sum len len with
        | Some n ->
            let doubled = Slp.pair store id id in
            Slp.len store doubled = n && climb doubled n
        | None -> pairs_to id id None
      in
      climb (Slp.of_string store (String.make b 'a')) b)

let store_access () =
  let store = Slp.create_store () in
  let id = Slp.of_string store "hello world" in
  check Alcotest.string "to_string" "hello world" (Slp.to_string store id);
  check Alcotest.char "char_at 1" 'h' (Slp.char_at store id 1);
  check Alcotest.char "char_at 5" 'o' (Slp.char_at store id 5);
  check Alcotest.char "char_at last" 'd' (Slp.char_at store id 11);
  check Alcotest.string "extract middle" "lo wo" (Slp.extract_string store id 4 9);
  check Alcotest.string "extract all" "hello world" (Slp.extract_string store id 1 12);
  check Alcotest.string "extract empty" "" (Slp.extract_string store id 3 3);
  Alcotest.check_raises "char_at out of range"
    (Invalid_argument "Slp.char_at: position 12 out of range (length 11)") (fun () ->
      ignore (Slp.char_at store id 12));
  Alcotest.check_raises "of_string empty" (Invalid_argument "Slp.of_string: empty document")
    (fun () -> ignore (Slp.of_string store ""))

(* ------------------------------------------------------------------ *)
(* Figure 1: exact reproduction *)

let figure1_documents () =
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  check Alcotest.string "D1" "ababbcabca" (Slp.to_string store fig.Figure1.a1);
  check Alcotest.string "D2" "bcabcaabbca" (Slp.to_string store fig.Figure1.a2);
  check Alcotest.string "D3" "ababbca" (Slp.to_string store fig.Figure1.a3);
  check Alcotest.string "B (eq. 4/5)" "abbca" (Slp.to_string store fig.Figure1.b);
  check Alcotest.string "via db" "ababbcabca" (Slp.to_string store (Doc_db.find fig.Figure1.db "D1"))

let figure1_orders () =
  (* §4.1: ord F = ord E = 2, ord C = 3, ord B = 4, ord D = ord A3 = 5,
     ord A1 = ord A2 = 6; all nodes balanced except A1 (2), A2, A3 (−2). *)
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  check Alcotest.int "ord F" 2 (Slp.order store fig.Figure1.f);
  check Alcotest.int "ord E" 2 (Slp.order store fig.Figure1.e);
  check Alcotest.int "ord C" 3 (Slp.order store fig.Figure1.c);
  check Alcotest.int "ord B" 4 (Slp.order store fig.Figure1.b);
  check Alcotest.int "ord D" 5 (Slp.order store fig.Figure1.d);
  check Alcotest.int "ord A3" 5 (Slp.order store fig.Figure1.a3);
  check Alcotest.int "ord A1" 6 (Slp.order store fig.Figure1.a1);
  check Alcotest.int "ord A2" 6 (Slp.order store fig.Figure1.a2);
  check Alcotest.int "bal A1" 2 (Slp.balance store fig.Figure1.a1);
  check Alcotest.int "bal A2" (-2) (Slp.balance store fig.Figure1.a2);
  check Alcotest.int "bal A3" (-2) (Slp.balance store fig.Figure1.a3);
  List.iter
    (fun node -> check Alcotest.bool "others balanced" true (abs (Slp.balance store node) <= 1))
    [ fig.Figure1.b; fig.Figure1.c; fig.Figure1.d; fig.Figure1.e; fig.Figure1.f ]

let figure1_extension () =
  (* §4.3 grey part: D4 = D2·D1 and D5 = 𝔇(B)𝔇(D)𝔇(B). *)
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  let a4, a5 = Figure1.extend fig in
  check Alcotest.string "D4" ("bcabcaabbca" ^ "ababbcabca") (Slp.to_string store a4);
  check Alcotest.string "D5" "abbcabcaabbcaabbca" (Slp.to_string store a5);
  check Alcotest.int "database grew" 5 (List.length (Doc_db.names fig.Figure1.db))

(* ------------------------------------------------------------------ *)
(* Builders *)

let builders_roundtrip () =
  let store = Slp.create_store () in
  let rng = X.create 99 in
  for _ = 1 to 30 do
    let s = X.string rng "abcd" (1 + X.int rng 300) in
    check Alcotest.string "balanced" s (Slp.to_string store (Builder.balanced_of_string store s));
    check Alcotest.string "lz78" s (Slp.to_string store (Builder.lz78 store s))
  done

let builders_compression () =
  let store = Slp.create_store () in
  let p = Builder.repeat store "ab" (1 lsl 14) in
  check Alcotest.int "power length" (1 lsl 15) (Slp.len store p);
  check Alcotest.bool "logarithmic size" true (Slp.reachable_size store p < 40);
  let fib = Builder.fibonacci store 25 in
  check Alcotest.int "fib length" 75025 (Slp.len store fib);
  check Alcotest.int "fib nodes" 25 (Slp.reachable_size store fib);
  (* lz78 on a repetitive string compresses well below n *)
  let s = String.concat "" (List.init 200 (fun _ -> "abcabc")) in
  let z = Builder.lz78 store s in
  check Alcotest.bool "lz78 compresses" true
    (Slp.reachable_size store z < String.length s / 2)

let builders_guards () =
  let store = Slp.create_store () in
  Alcotest.check_raises "power k=0" (Invalid_argument "Builder.power: exponent must be positive")
    (fun () -> ignore (Builder.power store (Slp.leaf store 'a') 0));
  Alcotest.check_raises "fibonacci k=0" (Invalid_argument "Builder.fibonacci: index must be positive")
    (fun () -> ignore (Builder.fibonacci store 0))

(* ------------------------------------------------------------------ *)
(* Balance (§4.1) *)

let balance_properties () =
  let store = Slp.create_store () in
  let rng = X.create 4 in
  for _ = 1 to 40 do
    let s1 = X.string rng "ab" (1 + X.int rng 100) in
    let s2 = X.string rng "ab" (1 + X.int rng 100) in
    let n1 = Builder.balanced_of_string store s1 in
    let n2 = Builder.balanced_of_string store s2 in
    let c = Balance.concat store n1 n2 in
    if Slp.to_string store c <> s1 ^ s2 then Alcotest.fail "concat content";
    if not (Slp.is_strongly_balanced store c) then Alcotest.fail "concat balance";
    let i = X.int rng (String.length s1 + String.length s2 + 1) in
    let l, r = Balance.split store c i in
    let sl = match l with None -> "" | Some l -> Slp.to_string store l in
    let sr = match r with None -> "" | Some r -> Slp.to_string store r in
    if sl ^ sr <> s1 ^ s2 then Alcotest.fail "split content";
    if String.length sl <> i then Alcotest.fail "split position";
    (match l with Some l when not (Slp.is_strongly_balanced store l) -> Alcotest.fail "split left balance" | _ -> ());
    (match r with Some r when not (Slp.is_strongly_balanced store r) -> Alcotest.fail "split right balance" | _ -> ())
  done

let balance_rebalance () =
  let store = Slp.create_store () in
  (* left comb: worst imbalance *)
  let comb = Slp.of_string store (String.init 200 (fun i -> if i mod 3 = 0 then 'a' else 'b')) in
  check Alcotest.bool "comb unbalanced" false (Slp.is_strongly_balanced store comb);
  let bal = Balance.rebalance store comb in
  check Alcotest.bool "rebalanced" true (Slp.is_strongly_balanced store bal);
  check Alcotest.string "same document" (Slp.to_string store comb) (Slp.to_string store bal);
  check Alcotest.bool "2-shallow (§4.1)" true (Slp.is_c_shallow store ~c:2.0 bal);
  let ord, log2 = Balance.depth_stats store bal in
  check Alcotest.bool "depth near log" true (ord <= (2 * log2) + 1)

let balance_extract () =
  let store = Slp.create_store () in
  let s = "the quick brown fox jumps over the lazy dog" in
  let id = Builder.balanced_of_string store s in
  check Alcotest.string "extract word" "quick" (Slp.to_string store (Balance.extract store id 5 9));
  check Alcotest.string "extract single" "t" (Slp.to_string store (Balance.extract store id 1 1));
  Alcotest.check_raises "empty extract"
    (Invalid_argument "Balance.extract: bad range [5..4] (length 43)") (fun () ->
      ignore (Balance.extract store id 5 4))

let figure1_rebalanced () =
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  let b1 = Balance.rebalance store fig.Figure1.a1 in
  check Alcotest.bool "A1 strongly balanced" true (Slp.is_strongly_balanced store b1);
  check Alcotest.string "A1 unchanged" "ababbcabca" (Slp.to_string store b1)

(* ------------------------------------------------------------------ *)
(* CDE (§4.3) *)

let cde_operations () =
  let fig = Figure1.build () in
  let db = fig.Figure1.db in
  let store = Doc_db.store db in
  (* strongly balance the database first, as §4.3 requires *)
  List.iter
    (fun n -> Doc_db.add db n (Balance.rebalance store (Doc_db.find db n)))
    (Doc_db.names db);
  let lookup n = Slp.to_string store (Doc_db.find db n) in
  let check_expr name e =
    let got = Slp.to_string store (Cde.eval db e) in
    let want = Cde.reference_eval lookup e in
    check Alcotest.string name want got;
    check Alcotest.bool (name ^ " balance") true (Slp.is_strongly_balanced store (Cde.eval db e))
  in
  check_expr "concat" (Cde.Concat (Cde.Doc "D2", Cde.Doc "D1"));
  check_expr "extract" (Cde.Extract (Cde.Doc "D1", 3, 8));
  check_expr "delete middle" (Cde.Delete (Cde.Doc "D1", 2, 5));
  check_expr "delete prefix" (Cde.Delete (Cde.Doc "D1", 1, 5));
  check_expr "delete suffix" (Cde.Delete (Cde.Doc "D1", 6, 10));
  check_expr "insert front" (Cde.Insert (Cde.Doc "D3", Cde.Doc "D2", 1));
  check_expr "insert back" (Cde.Insert (Cde.Doc "D3", Cde.Doc "D2", 8));
  check_expr "insert middle" (Cde.Insert (Cde.Doc "D3", Cde.Doc "D2", 4));
  check_expr "copy" (Cde.Copy (Cde.Doc "D2", 2, 6, 9));
  (* the paper's running example: cut 5..21 of one document, insert at
     12 of another, append to a third *)
  let d4 = Cde.Concat (Cde.Doc "D1", Cde.Concat (Cde.Doc "D2", Cde.Doc "D3")) in
  check_expr "paper-style pipeline"
    (Cde.Concat (Cde.Doc "D1", Cde.Insert (Cde.Doc "D2", Cde.Extract (d4, 5, 21), 3)))

let cde_guards () =
  let fig = Figure1.build () in
  let db = fig.Figure1.db in
  let store = Doc_db.store db in
  List.iter
    (fun n -> Doc_db.add db n (Balance.rebalance store (Doc_db.find db n)))
    (Doc_db.names db);
  Alcotest.check_raises "delete everything"
    (Invalid_argument "Cde.eval: delete would produce the empty document") (fun () ->
      ignore (Cde.eval db (Cde.Delete (Cde.Doc "D3", 1, 7))));
  (match Cde.eval db (Cde.Extract (Cde.Doc "D3", 1, 99)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "extract out of range should fail");
  check Alcotest.int "size of expr" 4 (Cde.size (Cde.Delete (Cde.Concat (Cde.Doc "a", Cde.Doc "b"), 1, 2)))

let cde_materialize () =
  let fig = Figure1.build () in
  let db = fig.Figure1.db in
  let store = Doc_db.store db in
  List.iter
    (fun n -> Doc_db.add db n (Balance.rebalance store (Doc_db.find db n)))
    (Doc_db.names db);
  let id = Cde.materialize db "D9" (Cde.Concat (Cde.Doc "D1", Cde.Doc "D2")) in
  check Alcotest.int "registered" id (Doc_db.find db "D9");
  check Alcotest.bool "total_len" true (Doc_db.total_len db > 0);
  check Alcotest.bool "compressed_size positive" true (Doc_db.compressed_size db > 0)

let doc_db_replace () =
  (* re-designating an existing name must not double-count it *)
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  ignore (Doc_db.add_string db "d" "abcabc");
  ignore (Doc_db.add_string db "other" "bb");
  let id2 = Slp.of_string store "xyzw" in
  Doc_db.add db "d" id2;
  check Alcotest.(list string) "names not duplicated" [ "d"; "other" ] (Doc_db.names db);
  check Alcotest.int "find returns the replacement" id2 (Doc_db.find db "d");
  check Alcotest.int "total_len counts the replacement once" (4 + 2) (Doc_db.total_len db);
  (* compressed_size counts nodes reachable from the *current*
     designations only — same count as a db built directly with them *)
  let fresh = Doc_db.create () in
  Doc_db.add fresh "d" (Slp.of_string (Doc_db.store fresh) "xyzw");
  ignore (Doc_db.add_string fresh "other" "bb");
  check Alcotest.int "compressed_size = fresh db with final contents"
    (Doc_db.compressed_size fresh) (Doc_db.compressed_size db);
  (* replacing with the same id again is also idempotent *)
  Doc_db.add db "d" id2;
  check Alcotest.(list string) "still not duplicated" [ "d"; "other" ] (Doc_db.names db)

let cde_boundaries () =
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  ignore (Doc_db.add_string db "d" "abcde");
  let n = 5 in
  let d = Cde.Doc "d" in
  let s e = Slp.to_string store (Cde.eval db e) in
  (* positions 1 and |D| (and |D|+1 where an insertion point) are valid *)
  check Alcotest.string "extract [1..n]" "abcde" (s (Cde.Extract (d, 1, n)));
  check Alcotest.string "extract [n..n]" "e" (s (Cde.Extract (d, n, n)));
  check Alcotest.string "delete [1..1]" "bcde" (s (Cde.Delete (d, 1, 1)));
  check Alcotest.string "delete [n..n]" "abcd" (s (Cde.Delete (d, n, n)));
  check Alcotest.string "insert at 1" "abcdeabcde" (s (Cde.Insert (d, d, 1)));
  check Alcotest.string "insert at n+1" "abcdeabcde" (s (Cde.Insert (d, d, n + 1)));
  check Alcotest.string "copy to n+1" "abcdeab" (s (Cde.Copy (d, 1, 2, n + 1)));
  (* position |D|+1 in a range, position 0, and |D|+2 as an insertion
     point all fail, with the offending positions in the message *)
  Alcotest.check_raises "extract past end"
    (Invalid_argument "Cde.eval: extract range [1..6] out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Extract (d, 1, n + 1))));
  Alcotest.check_raises "extract at 0"
    (Invalid_argument "Cde.eval: extract range [0..3] out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Extract (d, 0, 3))));
  Alcotest.check_raises "extract inverted"
    (Invalid_argument "Cde.eval: extract range [4..2] out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Extract (d, 4, 2))));
  Alcotest.check_raises "delete past end"
    (Invalid_argument "Cde.eval: delete range [5..6] out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Delete (d, n, n + 1))));
  Alcotest.check_raises "insert past n+1"
    (Invalid_argument "Cde.eval: insert position 7 out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Insert (d, d, n + 2))));
  Alcotest.check_raises "insert at 0"
    (Invalid_argument "Cde.eval: insert position 0 out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Insert (d, d, 0))));
  Alcotest.check_raises "copy bad range"
    (Invalid_argument "Cde.eval: copy range [3..7] out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Copy (d, 3, n + 2, 1))));
  Alcotest.check_raises "copy bad position"
    (Invalid_argument "Cde.eval: copy position 7 out of bounds (length 5)") (fun () ->
      ignore (Cde.eval db (Cde.Copy (d, 1, 2, n + 2))))

let cde_parse () =
  let roundtrip e =
    let printed = Format.asprintf "%a" Cde.pp e in
    check Alcotest.bool (Printf.sprintf "roundtrip %s" printed) true (Cde.parse printed = e)
  in
  roundtrip (Cde.Doc "doc");
  roundtrip (Cde.Concat (Cde.Doc "a", Cde.Doc "b"));
  roundtrip (Cde.Extract (Cde.Doc "d", 1, 12));
  roundtrip (Cde.Delete (Cde.Concat (Cde.Doc "x", Cde.Doc "y"), 2, 3));
  roundtrip (Cde.Insert (Cde.Doc "d", Cde.Extract (Cde.Doc "d", 5, 9), 4));
  roundtrip (Cde.Copy (Cde.Insert (Cde.Doc "a", Cde.Doc "b", 1), 1, 2, 3));
  (* whitespace is free; negative integers parse (and fail later, in
     eval, with the offending positions) *)
  check Alcotest.bool "whitespace" true
    (Cde.parse " extract( d ,\n 1 , 2 ) " = Cde.Extract (Cde.Doc "d", 1, 2));
  check Alcotest.bool "negative int" true
    (Cde.parse "extract(d, -1, 2)" = Cde.Extract (Cde.Doc "d", -1, 2));
  Alcotest.check_raises "unknown operation"
    (Invalid_argument "Cde.parse: unknown operation \"frobnicate\" at offset 11") (fun () ->
      ignore (Cde.parse "frobnicate(d, 1, 2)"));
  Alcotest.check_raises "trailing input"
    (Invalid_argument "Cde.parse: trailing input at offset 17") (fun () ->
      ignore (Cde.parse "extract(d, 1, 2) x"));
  Alcotest.check_raises "missing paren"
    (Invalid_argument "Cde.parse: expected ')' at offset 15") (fun () ->
      ignore (Cde.parse "extract(d, 1, 2"));
  Alcotest.check_raises "non-integer argument"
    (Invalid_argument "Cde.parse: expected an integer, got \"one\" at offset 14") (fun () ->
      ignore (Cde.parse "extract(d, one, 2)"))

(* ------------------------------------------------------------------ *)
(* Accept (§4.2) *)

let accept_matches_decompression () =
  let store = Slp.create_store () in
  let rng = X.create 11 in
  let nfa = Nfa.of_regex (Regex.parse "[ab]*ab[ab]*") in
  let cache = Accept.make_cache nfa store in
  for _ = 1 to 40 do
    let s = X.string rng "ab" (1 + X.int rng 200) in
    let id = Builder.lz78 store s in
    let via_matrix = Accept.accepts cache id in
    let via_string = Accept.accepts_via_decompression nfa store id in
    if via_matrix <> via_string then Alcotest.failf "accept mismatch on %S" s
  done;
  check Alcotest.bool "cache populated" true (Accept.cached_nodes cache > 0)

let accept_exponential_doc () =
  let store = Slp.create_store () in
  (* (ab)^(2^20): two million characters, ~40 nodes *)
  let big = Builder.repeat store "ab" (1 lsl 20) in
  let nfa_even = Nfa.of_regex (Regex.parse "(ab)*") in
  let cache = Accept.make_cache nfa_even store in
  check Alcotest.bool "(ab)^n in (ab)*" true (Accept.accepts cache big);
  let nfa_odd = Nfa.of_regex (Regex.parse "(ab)*a") in
  let cache2 = Accept.make_cache nfa_odd store in
  check Alcotest.bool "not in (ab)*a" false (Accept.accepts cache2 big);
  check Alcotest.bool "few matrices" true (Accept.cached_nodes cache < 64)

let accept_incremental () =
  (* new CDE nodes only pay for themselves *)
  let fig = Figure1.build () in
  let db = fig.Figure1.db in
  let store = Doc_db.store db in
  List.iter
    (fun n -> Doc_db.add db n (Balance.rebalance store (Doc_db.find db n)))
    (Doc_db.names db);
  let nfa = Nfa.of_regex (Regex.parse "[abc]*bca[abc]*") in
  let cache = Accept.make_cache nfa store in
  List.iter (fun n -> ignore (Accept.accepts cache (Doc_db.find db n))) (Doc_db.names db);
  let before = Accept.cached_nodes cache in
  let id = Cde.eval db (Cde.Concat (Cde.Doc "D1", Cde.Doc "D2")) in
  ignore (Accept.accepts cache id);
  let added = Accept.cached_nodes cache - before in
  check Alcotest.bool "few new matrices" true (added <= Slp.order store id + 2)

(* ------------------------------------------------------------------ *)
(* Slp_spanner (§4.2) *)

let slp_spanner_matches_oracle () =
  let store = Slp.create_store () in
  let rng = X.create 21 in
  let formulas =
    [ "[ab]*!x{a[ab]}[ab]*"; "!x{[ab]*}!y{b}!z{[ab]*}"; "a(!x{b})?[ab]*"; ".*!x{.}.*" ]
  in
  List.iter
    (fun fs ->
      let e = Evset.of_formula (Regex_formula.parse fs) in
      let engine = Slp_spanner.create e store in
      for _ = 1 to 15 do
        let s = X.string rng "ab" (1 + X.int rng 40) in
        let id = Builder.lz78 store s in
        let via_slp = Slp_spanner.to_relation engine id in
        let oracle = Evset.eval e s in
        if not (Span_relation.equal via_slp oracle) then
          Alcotest.failf "slp_spanner differs from oracle: %s on %S" fs s;
        if Slp_spanner.cardinal engine id <> Span_relation.cardinal oracle then
          Alcotest.failf "cardinal differs: %s on %S" fs s
      done)
    formulas

let slp_spanner_duplicate_free () =
  let store = Slp.create_store () in
  let e = Evset.of_formula (Regex_formula.parse ".*!x{.*}.*") in
  let engine = Slp_spanner.create e store in
  let id = Builder.repeat store "ab" 4 in
  let seen = Hashtbl.create 64 in
  Slp_spanner.prepare engine id;
  Cursor.iter (Cursor.of_slp engine id) (fun tuple ->
      let key = Format.asprintf "%a" Span_tuple.pp tuple in
      if Hashtbl.mem seen key then Alcotest.failf "duplicate %s" key;
      Hashtbl.add seen key ());
  (* |D| = 8: 9·10/2 = 45 spans *)
  check Alcotest.int "all spans of (ab)^4" 45 (Hashtbl.length seen)

let slp_spanner_exponential_doc () =
  let store = Slp.create_store () in
  let e = Evset.of_formula (Regex_formula.parse "[ab]*!x{ba}[ab]*") in
  let engine = Slp_spanner.create e store in
  let big = Builder.repeat store "ab" (1 lsl 16) in
  Slp_spanner.prepare engine big;
  check Alcotest.int "count without enumeration" ((1 lsl 16) - 1)
    (Slp_spanner.cardinal engine big);
  check Alcotest.bool "matrices stay compressed" true (Slp_spanner.matrices_computed engine < 150);
  (* enumerate only a prefix: the cursor pulls no further *)
  let c = Cursor.of_slp engine big in
  check Alcotest.int "early exit" 10 (Cursor.cardinal (Cursor.take c 10));
  check Alcotest.int "ten pulls" 10 (Cursor.pulls c)

(* a*!x{a*}a* has (n+1)(n+2)/2 answers over a^n: exact while that fits
   in an int (n = 2^30), a typed error past max_int (n = 2^32) instead
   of a wrapped count.  Counting keeps its memo per call, so two
   domains may count over one prepared engine at once. *)
let slp_spanner_cardinal_overflow () =
  let store = Slp.create_store () in
  let engine = Slp_spanner.create (Evset.of_formula (Regex_formula.parse "a*!x{a*}a*")) store in
  let rec power id k = if k = 0 then id else power (Slp.pair store id id) (k - 1) in
  let a30 = power (Slp.leaf store 'a') 30 in
  let n = 1 lsl 30 in
  check Alcotest.int "a^(2^30): exact" ((n + 1) * (n + 2) / 2) (Slp_spanner.cardinal engine a30);
  let a32 = power a30 2 in
  Slp_spanner.prepare engine a32;
  let other = Domain.spawn (fun () -> Slp_spanner.cardinal engine a30) in
  (match Slp_spanner.cardinal engine a32 with
  | c -> Alcotest.failf "a^(2^32): the count exceeds max_int, got %d" c
  | exception Limits.Spanner_error (Limits.Eval_failure { what = "cardinal"; _ }) -> ());
  check Alcotest.int "a^(2^30) on a second domain" ((n + 1) * (n + 2) / 2) (Domain.join other)

let slp_spanner_shared_docs () =
  (* one engine over a document database: shared nodes shared in cache *)
  let fig = Figure1.build () in
  let store = Doc_db.store fig.Figure1.db in
  let e = Evset.of_formula (Regex_formula.parse "[abc]*!x{bca}[abc]*") in
  let engine = Slp_spanner.create e store in
  List.iter
    (fun name ->
      let id = Doc_db.find fig.Figure1.db name in
      let doc = Slp.to_string store id in
      let oracle = Evset.eval e doc in
      if not (Span_relation.equal (Slp_spanner.to_relation engine id) oracle) then
        Alcotest.failf "mismatch on %s" name)
    (Doc_db.names fig.Figure1.db);
  check Alcotest.bool "vars" true (Variable.Set.mem (v "x") (Slp_spanner.vars engine))


(* ------------------------------------------------------------------ *)
(* Slp_hash: compressed fingerprints *)

let slp_hash_vs_strings () =
  let store = Slp.create_store () in
  let h = Slp_hash.create store in
  let rng = X.create 8 in
  for _ = 1 to 200 do
    let s = X.string rng "abc" (1 + X.int rng 120) in
    let id = Builder.lz78 store s in
    let n = String.length s in
    let i = 1 + X.int rng n in
    let j = i + X.int rng (n - i + 1) in
    let i' = 1 + X.int rng n in
    let j' = i' + X.int rng (n - i' + 1) in
    let want = String.sub s (i - 1) (j - i) = String.sub s (i' - 1) (j' - i') in
    if Slp_hash.factor_equal h id (i, j) (i', j') <> want then
      Alcotest.failf "fingerprint mismatch on %S [%d,%d) vs [%d,%d)" s i j i' j'
  done

let slp_hash_node_vs_factor () =
  let store = Slp.create_store () in
  let h = Slp_hash.create store in
  let id = Builder.balanced_of_string store "mississippi" in
  check Alcotest.bool "whole = factor(1..n+1)" true
    (Slp_hash.node_hash h id = Slp_hash.factor_hash h id 1 12);
  check Alcotest.bool "issi = issi" true (Slp_hash.factor_equal h id (2, 6) (5, 9));
  check Alcotest.bool "empty factors equal" true (Slp_hash.factor_equal h id (3, 3) (9, 9));
  check Alcotest.bool "different" false (Slp_hash.factor_equal h id (1, 4) (2, 5));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Slp_hash.factor_hash: bad range [5,20\xe2\x9f\xa9 (length 11)") (fun () ->
      ignore (Slp_hash.factor_hash h id 5 20));
  check Alcotest.bool "cache nonempty" true (Slp_hash.cached_nodes h > 0)

(* ------------------------------------------------------------------ *)
(* Slp_core: core spanners over compressed documents *)

let slp_core_vs_uncompressed () =
  let store = Slp.create_store () in
  let vsl = Variable.set_of_list in
  let core =
    Core_spanner.simplify
      (Algebra.Select (vsl [ v "x"; v "y" ], Algebra.formula "!x{[ab]+};!y{[ab]+};[ab;]*"))
  in
  let sc = Slp_core.create core store in
  let rng = X.create 12 in
  for _ = 1 to 30 do
    let f1 = X.string rng "ab" (1 + X.int rng 3) in
    let doc =
      f1 ^ ";"
      ^ (if X.bool rng then f1 else X.string rng "ab" (1 + X.int rng 3))
      ^ ";" ^ X.string rng "ab;" (X.int rng 10)
    in
    let id = Builder.lz78 store doc in
    let compressed = Slp_core.eval sc id in
    let reference = Core_spanner.eval core doc in
    if not (Span_relation.equal compressed reference) then
      Alcotest.failf "slp_core differs on %S" doc;
    if Slp_core.nonempty_on sc id <> not (Span_relation.is_empty reference) then
      Alcotest.failf "slp_core nonempty differs on %S" doc;
    if Slp_core.count sc id <> Span_relation.cardinal reference then
      Alcotest.failf "slp_core count differs on %S" doc
  done

let slp_core_compressed_win () =
  (* a large repetitive document evaluated without decompression *)
  let store = Slp.create_store () in
  let vsl = Variable.set_of_list in
  let core =
    Core_spanner.simplify
      (Algebra.Select (vsl [ v "x"; v "y" ], Algebra.formula "!x{[ab]+};!y{[ab]+};[ab;]*"))
  in
  let sc = Slp_core.create core store in
  (* (ab;)^k: every adjacent field pair is equal *)
  let id = Builder.repeat store "ab;" 2000 in
  check Alcotest.bool "nonempty" true (Slp_core.nonempty_on sc id)



(* ------------------------------------------------------------------ *)
(* Serialize: on-disk document databases *)

let serialize_roundtrip () =
  let fig = Figure1.build () in
  let _ = Figure1.extend fig in
  let db = fig.Figure1.db in
  let path = Filename.temp_file "slpdb" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Serialize.write_file db path;
      let db' = Serialize.read_file path in
      check (Alcotest.list Alcotest.string) "names preserved" (Doc_db.names db) (Doc_db.names db');
      List.iter
        (fun name ->
          check Alcotest.string ("document " ^ name)
            (Slp.to_string (Doc_db.store db) (Doc_db.find db name))
            (Slp.to_string (Doc_db.store db') (Doc_db.find db' name)))
        (Doc_db.names db);
      (* sharing survives: compressed size identical *)
      check Alcotest.int "compressed size preserved" (Doc_db.compressed_size db)
        (Doc_db.compressed_size db'))

let serialize_large_roundtrip () =
  let db = Doc_db.create () in
  let rng = X.create 77 in
  ignore (Doc_db.add_string db "doc1" (X.string rng "abcd" 2000));
  (* a highly repetitive document dominates the total length, so the
     compressed file is smaller than the plain text *)
  ignore (Doc_db.add_string db "doc2" (String.concat "" (List.init 20000 (fun _ -> "abcabc"))));
  let path = Filename.temp_file "slpdb" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Serialize.write_file db path;
      let db' = Serialize.read_file path in
      List.iter
        (fun name ->
          check Alcotest.string name
            (Slp.to_string (Doc_db.store db) (Doc_db.find db name))
            (Slp.to_string (Doc_db.store db') (Doc_db.find db' name)))
        (Doc_db.names db);
      (* the file is much smaller than the repetitive document *)
      let stat = open_in_bin path in
      let file_size = in_channel_length stat in
      close_in stat;
      check Alcotest.bool "file smaller than plain text" true
        (file_size < Doc_db.total_len db))

let serialize_errors () =
  let path = Filename.temp_file "slpdb" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOTSLP!";
      close_out oc;
      match Serialize.read_file path with
      | exception Spanner_util.Limits.Spanner_error (Spanner_util.Limits.Corrupt_input _) -> ()
      | _ -> Alcotest.fail "bad magic accepted")

let () =
  Alcotest.run "slp"
    [
      ( "store",
        [ tc "hash-consing" `Quick store_hashcons; tc "access" `Quick store_access ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_length_overflow ] );
      ( "figure1",
        [
          tc "documents" `Quick figure1_documents;
          tc "orders and balances (§4.1)" `Quick figure1_orders;
          tc "grey extension (§4.3)" `Quick figure1_extension;
        ] );
      ( "builders",
        [
          tc "roundtrip" `Quick builders_roundtrip;
          tc "compression" `Quick builders_compression;
          tc "guards" `Quick builders_guards;
        ] );
      ( "balance",
        [
          tc "concat/split properties" `Quick balance_properties;
          tc "rebalance" `Quick balance_rebalance;
          tc "extract" `Quick balance_extract;
          tc "figure1 rebalanced" `Quick figure1_rebalanced;
        ] );
      ( "cde",
        [
          tc "operations vs reference" `Quick cde_operations;
          tc "guards" `Quick cde_guards;
          tc "materialize" `Quick cde_materialize;
          tc "replacing a designation" `Quick doc_db_replace;
          tc "boundary positions" `Quick cde_boundaries;
          tc "parse" `Quick cde_parse;
        ] );
      ( "accept",
        [
          tc "matches decompression" `Quick accept_matches_decompression;
          tc "exponentially compressed document" `Quick accept_exponential_doc;
          tc "incremental after CDE" `Quick accept_incremental;
        ] );
      ( "serialize",
        [
          tc "figure1 roundtrip" `Quick serialize_roundtrip;
          tc "large database roundtrip" `Quick serialize_large_roundtrip;
          tc "bad input rejected" `Quick serialize_errors;
        ] );
      ( "slp_hash",
        [
          tc "fingerprints vs strings" `Quick slp_hash_vs_strings;
          tc "node/factor consistency" `Quick slp_hash_node_vs_factor;
        ] );
      ( "slp_core",
        [
          tc "core spanner over SLP vs uncompressed" `Quick slp_core_vs_uncompressed;
          tc "nonempty without decompression" `Quick slp_core_compressed_win;
        ] );
      ( "slp_spanner",
        [
          tc "matches oracle" `Quick slp_spanner_matches_oracle;
          tc "duplicate free" `Quick slp_spanner_duplicate_free;
          tc "exponentially compressed document" `Quick slp_spanner_exponential_doc;
          tc "cardinal past max_int" `Quick slp_spanner_cardinal_overflow;
          tc "document database sharing" `Quick slp_spanner_shared_docs;
        ] );
    ]
