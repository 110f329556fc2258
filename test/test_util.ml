(* Unit tests for the shared infrastructure: Vec, Bitset, Bitmatrix,
   Strhash, Interner, Xoshiro. *)

open Spanner_util

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Pool.parse_jobs — the SPANNER_JOBS override must reject garbage
   loudly (warning + machine default) instead of silently ignoring *)

let pool_parse_jobs () =
  let ok = Alcotest.(result int string) in
  let is_ok v r = check Alcotest.bool v true (match r with Ok _ -> true | Error _ -> false) in
  check ok "positive" (Ok 4) (Pool.parse_jobs "4");
  check ok "one" (Ok 1) (Pool.parse_jobs "1");
  check ok "trimmed" (Ok 8) (Pool.parse_jobs " 8 ");
  is_ok "large" (Pool.parse_jobs "1024");
  let is_err v r = check Alcotest.bool v true (match r with Error _ -> true | Ok _ -> false) in
  is_err "empty" (Pool.parse_jobs "");
  is_err "blank" (Pool.parse_jobs "   ");
  is_err "alpha" (Pool.parse_jobs "four");
  is_err "trailing junk" (Pool.parse_jobs "4x");
  is_err "zero" (Pool.parse_jobs "0");
  is_err "negative" (Pool.parse_jobs "-2");
  is_err "float" (Pool.parse_jobs "2.5")

(* ------------------------------------------------------------------ *)
(* Locked_lru *)

let locked_lru_basic () =
  let l = Locked_lru.create ~capacity:2 () in
  check Alcotest.int "computed once" 10 (Locked_lru.find_or_add l 1 (fun () -> 10));
  check Alcotest.int "cached" 10 (Locked_lru.find_or_add l 1 (fun () -> 99));
  Locked_lru.add l 2 20;
  Locked_lru.add l 3 30;
  check Alcotest.(option int) "evicted lru key" None (Locked_lru.find l 1);
  check Alcotest.int "length" 2 (Locked_lru.length l);
  let s = Locked_lru.stats l in
  check Alcotest.int "evictions counted" 1 s.Lru.evictions

let locked_lru_concurrent () =
  (* hammer one cache from several domains: every lookup must return
     the value computed for its key, and the structure must stay
     consistent (length <= capacity) *)
  let l = Locked_lru.create ~capacity:16 () in
  let worker seed () =
    let r = ref seed in
    for i = 0 to 4_999 do
      let k = (seed + i) mod 32 in
      let v = Locked_lru.find_or_add l k (fun () -> k * 7) in
      if v <> k * 7 then failwith "wrong value from cache";
      r := !r + v
    done;
    !r
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter (fun d -> ignore (Domain.join d)) domains;
  check Alcotest.bool "bounded" true (Locked_lru.length l <= 16)

(* ------------------------------------------------------------------ *)
(* Vec *)

let vec_push_get () =
  let v = Vec.create () in
  check Alcotest.bool "fresh is empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    check Alcotest.int "push returns index" i (Vec.push v (i * 2))
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 198 (Vec.get v 99);
  Vec.set v 50 (-1);
  check Alcotest.int "set/get" (-1) (Vec.get v 50)

let vec_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check Alcotest.int "last" 3 (Vec.last v);
  check Alcotest.int "pop" 3 (Vec.pop v);
  check Alcotest.int "length after pop" 2 (Vec.length v);
  check Alcotest.int "pop again" 2 (Vec.pop v);
  check Alcotest.int "pop again" 1 (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let vec_bounds () =
  let v = Vec.of_list [ 0 ] in
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec: index 1 out of bounds (size 1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "negative index" (Invalid_argument "Vec: index -1 out of bounds (size 1)")
    (fun () -> ignore (Vec.get v (-1)))

let vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check Alcotest.int "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  let collected = ref [] in
  Vec.iteri (fun i x -> collected := (i, x) :: !collected) v;
  check Alcotest.int "iteri count" 4 (List.length !collected);
  check (Alcotest.list Alcotest.int) "to_list" [ 1; 2; 3; 4 ] (Vec.to_list v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.bool "exists negative" false (Vec.exists (fun x -> x = 5) v)

let vec_truncate () =
  let v = Vec.of_list [ 1; 2; 3; 4; 5 ] in
  Vec.truncate v 2;
  check (Alcotest.list Alcotest.int) "after truncate" [ 1; 2 ] (Vec.to_list v);
  Vec.truncate v 10;
  check Alcotest.int "truncate beyond size is noop" 2 (Vec.length v);
  Vec.clear v;
  check Alcotest.bool "clear empties" true (Vec.is_empty v)

let vec_make () =
  let v = Vec.make 5 'x' in
  check Alcotest.int "make length" 5 (Vec.length v);
  check Alcotest.char "make content" 'x' (Vec.get v 4);
  check (Alcotest.array Alcotest.char) "to_array" [| 'x'; 'x'; 'x'; 'x'; 'x' |] (Vec.to_array v)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let bitset_basic () =
  let s = Bitset.create 100 in
  check Alcotest.bool "fresh empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
  check Alcotest.bool "mem 63" true (Bitset.mem s 63);
  check Alcotest.bool "mem 62" false (Bitset.mem s 62);
  Bitset.remove s 63;
  check Alcotest.bool "removed" false (Bitset.mem s 63);
  check (Alcotest.list Alcotest.int) "elements sorted" [ 0; 64; 99 ] (Bitset.elements s)

let bitset_set_ops () =
  let a = Bitset.of_list 50 [ 1; 2; 3 ] in
  let b = Bitset.of_list 50 [ 2; 3; 4 ] in
  let i = Bitset.inter a b in
  check (Alcotest.list Alcotest.int) "inter" [ 2; 3 ] (Bitset.elements i);
  check Alcotest.bool "subset yes" true (Bitset.subset i a);
  check Alcotest.bool "subset no" false (Bitset.subset a b);
  let into = Bitset.copy a in
  check Alcotest.bool "union changes" true (Bitset.union_into ~into b);
  check (Alcotest.list Alcotest.int) "union" [ 1; 2; 3; 4 ] (Bitset.elements into);
  check Alcotest.bool "union again no change" false (Bitset.union_into ~into b)

let bitset_equal_hash () =
  let a = Bitset.of_list 30 [ 5; 7 ] in
  let b = Bitset.of_list 30 [ 7; 5 ] in
  check Alcotest.bool "equal" true (Bitset.equal a b);
  check Alcotest.int "hash consistent" (Bitset.hash a) (Bitset.hash b);
  check Alcotest.int "compare equal" 0 (Bitset.compare a b);
  Bitset.add b 8;
  check Alcotest.bool "not equal" false (Bitset.equal a b)

let bitset_choose_clear () =
  let s = Bitset.of_list 20 [ 9; 4; 13 ] in
  check (Alcotest.option Alcotest.int) "choose smallest" (Some 4) (Bitset.choose s);
  Bitset.clear s;
  check (Alcotest.option Alcotest.int) "choose empty" None (Bitset.choose s);
  check Alcotest.int "capacity survives clear" 20 (Bitset.capacity s)

let bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Bitset: index 8 out of bounds (capacity 8)") (fun () -> Bitset.add s 8)

(* ------------------------------------------------------------------ *)
(* Bitmatrix *)

let bitmatrix_mul () =
  (* 0 -> 1 -> 2 as adjacency; product = two-step reachability *)
  let m = Bitmatrix.create 3 in
  Bitmatrix.set m 0 1;
  Bitmatrix.set m 1 2;
  let m2 = Bitmatrix.mul m m in
  check Alcotest.bool "two-step 0->2" true (Bitmatrix.get m2 0 2);
  check Alcotest.bool "no 0->1 in m2" false (Bitmatrix.get m2 0 1);
  let id = Bitmatrix.identity 3 in
  check Alcotest.bool "m * I = m" true (Bitmatrix.equal (Bitmatrix.mul m id) m);
  check Alcotest.bool "I * m = m" true (Bitmatrix.equal (Bitmatrix.mul id m) m)

let bitmatrix_closure () =
  let m = Bitmatrix.create 4 in
  Bitmatrix.set m 0 1;
  Bitmatrix.set m 1 2;
  Bitmatrix.set m 2 3;
  let c = Bitmatrix.transitive_closure m in
  check Alcotest.bool "0 reaches 3" true (Bitmatrix.get c 0 3);
  check Alcotest.bool "reflexive" true (Bitmatrix.get c 2 2);
  check Alcotest.bool "no back edge" false (Bitmatrix.get c 3 0)

let bitmatrix_apply_row () =
  let m = Bitmatrix.create 3 in
  Bitmatrix.set m 0 2;
  Bitmatrix.set m 1 2;
  Bitmatrix.set m 2 0;
  let s = Bitset.of_list 3 [ 0; 1 ] in
  let image = Bitmatrix.apply_row m s in
  check (Alcotest.list Alcotest.int) "image" [ 2 ] (Bitset.elements image)

let bitmatrix_union () =
  let a = Bitmatrix.create 2 and b = Bitmatrix.create 2 in
  Bitmatrix.set a 0 0;
  Bitmatrix.set b 1 1;
  let u = Bitmatrix.union a b in
  check Alcotest.bool "a part" true (Bitmatrix.get u 0 0);
  check Alcotest.bool "b part" true (Bitmatrix.get u 1 1);
  check Alcotest.bool "nothing else" false (Bitmatrix.get u 0 1)

(* ------------------------------------------------------------------ *)
(* Strhash *)

let strhash_equalities () =
  let h = Strhash.make "abcabcXabc" in
  check Alcotest.bool "abc = abc (0,3)" true (Strhash.equal_sub h 0 3 3);
  check Alcotest.bool "abc = abc (0,7)" true (Strhash.equal_sub h 0 7 3);
  check Alcotest.bool "abc != bca" false (Strhash.equal_sub h 0 1 3);
  check Alcotest.bool "empty factors equal" true (Strhash.equal_sub h 2 9 0);
  check Alcotest.bool "same offset" true (Strhash.equal_sub h 4 4 5);
  check Alcotest.int "length" 10 (Strhash.length h)

let strhash_spans () =
  let h = Strhash.make "banana" in
  (* "ana" at offsets 1 and 3 *)
  check Alcotest.bool "ana = ana" true (Strhash.equal_span h ~a:(1, 4) ~b:(3, 6));
  check Alcotest.bool "different lengths" false (Strhash.equal_span h ~a:(1, 4) ~b:(3, 5));
  check Alcotest.bool "ban != ana" false (Strhash.equal_span h ~a:(0, 3) ~b:(1, 4))

let strhash_exhaustive_small () =
  (* Cross-check every factor pair of a small string against String.sub. *)
  let s = "abaabbabaab" in
  let h = Strhash.make s in
  let n = String.length s in
  for i = 0 to n do
    for j = 0 to n do
      for len = 0 to n - max i j do
        let expected = String.sub s i len = String.sub s j len in
        if Strhash.equal_sub h i j len <> expected then
          Alcotest.failf "mismatch i=%d j=%d len=%d" i j len
      done
    done
  done

let strhash_bounds () =
  let h = Strhash.make "abc" in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Strhash: range [2, 2+2) out of bounds (length 3)") (fun () ->
      ignore (Strhash.equal_sub h 2 0 2))

(* ------------------------------------------------------------------ *)
(* Interner *)

let interner_roundtrip () =
  let t = Interner.create () in
  let a = Interner.intern t "alpha" in
  let b = Interner.intern t "beta" in
  check Alcotest.int "dense ids" 0 a;
  check Alcotest.int "dense ids" 1 b;
  check Alcotest.int "idempotent" a (Interner.intern t "alpha");
  check Alcotest.string "name" "beta" (Interner.name t b);
  check (Alcotest.option Alcotest.int) "find" (Some 0) (Interner.find t "alpha");
  check (Alcotest.option Alcotest.int) "find missing" None (Interner.find t "gamma");
  check Alcotest.int "count" 2 (Interner.count t);
  check (Alcotest.list Alcotest.string) "names in order" [ "alpha"; "beta" ] (Interner.names t)

(* Two domains intern fresh names into one interner while reading names
   back: every name must get its own id, and that id must name it. *)
let interner_two_domains () =
  let t = Interner.create () in
  let bad = Atomic.make 0 in
  let rounds = 50 and per_round = 2000 in
  for round = 1 to rounds do
    let work tag () =
      Array.init per_round (fun i ->
          let s = Printf.sprintf "%s%d_%d" tag round i in
          let id = Interner.intern t s in
          if Interner.name t id <> s then Atomic.incr bad;
          (s, id))
    in
    let other = Domain.spawn (work "a") in
    let mine = work "b" () in
    Array.iter
      (fun (s, id) ->
        if Interner.name t id <> s || Interner.find t s <> Some id then Atomic.incr bad)
      (Array.append mine (Domain.join other))
  done;
  check Alcotest.int "inconsistent ids" 0 (Atomic.get bad);
  check Alcotest.int "one id per name" (2 * rounds * per_round) (Interner.count t)

(* ------------------------------------------------------------------ *)
(* Lru *)

let lru_basic () =
  let t = Lru.create ~capacity:3 () in
  check Alcotest.int "capacity" 3 (Lru.capacity t);
  check Alcotest.int "fresh length" 0 (Lru.length t);
  check (Alcotest.option Alcotest.string) "miss" None (Lru.find t 1);
  Lru.add t 1 "one";
  Lru.add t 2 "two";
  check (Alcotest.option Alcotest.string) "hit" (Some "one") (Lru.find t 1);
  Lru.add t 1 "uno";
  check Alcotest.int "replace keeps length" 2 (Lru.length t);
  check (Alcotest.option Alcotest.string) "replaced" (Some "uno") (Lru.find t 1);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Lru.create: capacity must be at least 1") (fun () ->
      ignore (Lru.create ~capacity:0 ()))

let lru_eviction_order () =
  let t = Lru.create ~capacity:3 () in
  Lru.add t 'a' 0;
  Lru.add t 'b' 1;
  Lru.add t 'c' 2;
  (* touch 'a': 'b' becomes the least recently used *)
  ignore (Lru.find t 'a');
  Lru.add t 'd' 3;
  check Alcotest.bool "b evicted" false (Lru.mem t 'b');
  check Alcotest.bool "a kept" true (Lru.mem t 'a');
  check Alcotest.bool "c kept" true (Lru.mem t 'c');
  check Alcotest.bool "d kept" true (Lru.mem t 'd');
  check Alcotest.int "evictions counted" 1 (Lru.stats t).Lru.evictions;
  (* replacing an existing key when full must not evict *)
  Lru.add t 'c' 9;
  check Alcotest.int "replace is not an eviction" 1 (Lru.stats t).Lru.evictions;
  check Alcotest.int "length at capacity" 3 (Lru.length t)

let lru_stats () =
  let t = Lru.create ~capacity:2 () in
  Lru.add t 1 "x";
  ignore (Lru.find t 1);
  ignore (Lru.find t 1);
  ignore (Lru.find t 2);
  ignore (Lru.mem t 2);
  (* mem is counter-neutral *)
  let s = Lru.stats t in
  check Alcotest.int "hits" 2 s.Lru.hits;
  check Alcotest.int "misses" 1 s.Lru.misses;
  check Alcotest.int "evictions" 0 s.Lru.evictions;
  (* remove is not an eviction; clear keeps counters *)
  Lru.remove t 1;
  check Alcotest.int "length after remove" 0 (Lru.length t);
  Lru.add t 3 "y";
  Lru.clear t;
  check Alcotest.int "length after clear" 0 (Lru.length t);
  check Alcotest.int "counters kept" 2 (Lru.stats t).Lru.hits;
  Lru.reset_stats t;
  let s = Lru.stats t in
  check Alcotest.int "reset hits" 0 s.Lru.hits;
  check Alcotest.int "reset misses" 0 s.Lru.misses;
  check Alcotest.int "reset evictions" 0 s.Lru.evictions

let lru_churn () =
  (* keys 0..9 round-robin through a 4-entry cache: the working set
     never fits, so every find misses and every add evicts *)
  let t = Lru.create ~capacity:4 () in
  for round = 1 to 3 do
    for k = 0 to 9 do
      (match Lru.find t k with None -> Lru.add t k (k * round) | Some _ -> ());
      if Lru.length t > 4 then Alcotest.failf "over capacity at key %d" k
    done
  done;
  let s = Lru.stats t in
  check Alcotest.int "all misses" 30 s.Lru.misses;
  check Alcotest.int "no hits" 0 s.Lru.hits;
  check Alcotest.int "evictions" 26 s.Lru.evictions

(* ------------------------------------------------------------------ *)
(* Xoshiro *)

let xoshiro_deterministic () =
  let a = Xoshiro.create 123 and b = Xoshiro.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int "same seed, same stream" (Xoshiro.next a) (Xoshiro.next b)
  done;
  let c = Xoshiro.create 124 in
  check Alcotest.bool "different seed differs" true (Xoshiro.next a <> Xoshiro.next c)

let xoshiro_ranges () =
  let r = Xoshiro.create 5 in
  for _ = 1 to 1000 do
    let v = Xoshiro.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "int out of range: %d" v;
    let f = Xoshiro.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done;
  let s = Xoshiro.string r "xyz" 50 in
  check Alcotest.int "string length" 50 (String.length s);
  check Alcotest.bool "alphabet respected" true
    (String.for_all (fun c -> c = 'x' || c = 'y' || c = 'z') s)

let () =
  Alcotest.run "util"
    [
      ( "vec",
        [
          tc "push/get" `Quick vec_push_get;
          tc "pop/last" `Quick vec_pop_last;
          tc "bounds" `Quick vec_bounds;
          tc "iter/fold" `Quick vec_iter_fold;
          tc "truncate/clear" `Quick vec_truncate;
          tc "make/to_array" `Quick vec_make;
        ] );
      ( "bitset",
        [
          tc "basic" `Quick bitset_basic;
          tc "set operations" `Quick bitset_set_ops;
          tc "equal/hash" `Quick bitset_equal_hash;
          tc "choose/clear" `Quick bitset_choose_clear;
          tc "bounds" `Quick bitset_bounds;
        ] );
      ( "bitmatrix",
        [
          tc "multiplication" `Quick bitmatrix_mul;
          tc "transitive closure" `Quick bitmatrix_closure;
          tc "apply_row" `Quick bitmatrix_apply_row;
          tc "union" `Quick bitmatrix_union;
        ] );
      ( "strhash",
        [
          tc "equalities" `Quick strhash_equalities;
          tc "spans" `Quick strhash_spans;
          tc "exhaustive small" `Quick strhash_exhaustive_small;
          tc "bounds" `Quick strhash_bounds;
        ] );
      ( "interner",
        [
          tc "roundtrip" `Quick interner_roundtrip;
          tc "two domains intern at once" `Quick interner_two_domains;
        ] );
      ( "lru",
        [
          tc "basic" `Quick lru_basic;
          tc "eviction order" `Quick lru_eviction_order;
          tc "stats" `Quick lru_stats;
          tc "churn" `Quick lru_churn;
        ] );
      ( "xoshiro",
        [ tc "deterministic" `Quick xoshiro_deterministic; tc "ranges" `Quick xoshiro_ranges ] );
      ("pool", [ tc "parse_jobs" `Quick pool_parse_jobs ]);
      ( "locked_lru",
        [ tc "basic" `Quick locked_lru_basic; tc "concurrent" `Quick locked_lru_concurrent ] );
    ]
