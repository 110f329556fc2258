(* Seeded input generation.

   Every input the benchmark feeds the program comes from here, and
   only from the [--seed] argument and the workload's sizes: the same
   seed yields byte-identical documents, schedules and op streams in
   any process.  The PRNG is a self-contained splitmix64, so a change
   to the program's own generators can never change the inputs. *)

type rng = { mutable s : int64 }

let rng ~seed ~salt = { s = Int64.(add (mul (of_int seed) 0x2545F4914F6CDD1DL) (of_int salt)) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let int r bound = Int64.(to_int (unsigned_rem (next r) (of_int bound)))
let range r lo hi = lo + int r (hi - lo + 1)
let pick r a = a.(int r (Array.length a))

(* ------------------------------------------------------------------ *)
(* Documents *)

let hosts = [| "web01"; "web02"; "web03"; "db01"; "db02"; "cache01"; "auth01"; "batch01" |]
let users =
  [| "alice"; "bob"; "carol"; "dave"; "erin"; "frank"; "grace"; "heidi"; "ivan"; "judy";
     "mallory"; "niaj"; "olivia"; "peggy"; "rupert"; "sybil" |]
let paths =
  [| "/"; "/index.html"; "/api/v1/items"; "/api/v1/users"; "/api/v1/orders"; "/login";
     "/logout"; "/static/app.js"; "/static/app.css"; "/health"; "/metrics"; "/search" |]
let statuses = [| "200"; "200"; "200"; "200"; "201"; "204"; "301"; "304"; "404"; "500" |]
let messages =
  [| "connection reset by peer"; "timeout waiting for upstream"; "disk quota exceeded";
     "invalid session token"; "deadlock detected, retrying"; "out of file descriptors" |]

(* Seeded Fisher-Yates shuffle. *)
let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Log lines come in five kinds.  The queries find one answer per line
   of a kind: [errcode] one code per error line, [user] one name per
   login line, [failure] one status per 5xx cron line; the selection
   pairs login lines naming the same user. *)
type line_kind = Login | Error | Cron | Cron5xx | Http

let log_line r ~clock kind =
  clock := !clock + range r 0 3;
  let t = !clock in
  let ts =
    Printf.sprintf "2024-05-%02d %02d:%02d:%02d" (1 + (t / 86400 mod 28)) (t / 3600 mod 24)
      (t / 60 mod 60) (t mod 60)
  in
  let host = pick r hosts in
  match kind with
  | Login -> Printf.sprintf "%s %s auth: login user=%s ok\n" ts host (pick r users)
  | Error -> Printf.sprintf "%s %s app: ERROR E%03d %s\n" ts host (range r 100 140) (pick r messages)
  | Cron ->
      Printf.sprintf "%s %s cron: req=%d status=%s done\n" ts host (range r 1000 1400)
        (pick r [| "200"; "201"; "204"; "404" |])
  | Cron5xx ->
      Printf.sprintf "%s %s cron: req=%d status=%s done\n" ts host (range r 1000 1400)
        (pick r [| "500"; "502"; "503" |])
  | Http ->
      Printf.sprintf "%s %s http: GET %s status=%s lat=%dms\n" ts host (pick r paths)
        (pick r [| "200"; "200"; "201"; "304"; "404" |])
        (range r 1 40)

(* [kinds r n] is [n] line kinds in exact shares (10% logins, 8%
   errors, 12% cron, 3% failing cron, the rest HTTP), shuffled: every
   seed gives every query the same amount of work. *)
let kinds r n =
  let counts = [ (Login, n * 10 / 100); (Error, n * 8 / 100); (Cron, n * 12 / 100); (Cron5xx, n * 3 / 100) ] in
  let rest = n - List.fold_left (fun a (_, c) -> a + c) 0 counts in
  let a = Array.of_list (List.concat_map (fun (k, c) -> List.init c (fun _ -> k)) ((Http, rest) :: counts)) in
  shuffle r a;
  a

(* A log document of [lines] lines. *)
let log_doc r ~lines =
  let b = Buffer.create (lines * 64) in
  let clock = ref (int r 100_000) in
  Array.iter (fun k -> Buffer.add_string b (log_line r ~clock k)) (kinds r lines);
  Buffer.contents b

(* A noisy document: [lines] lines of random text that LZ78 cannot
   compress to ratio 2, every fourth one a log line so every query has
   answers. *)
let noise_alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-=:/."

let noisy_doc r ~lines =
  let b = Buffer.create (lines * 64) in
  let clock = ref (int r 100_000) in
  let ks = kinds r (lines / 4) in
  for i = 0 to lines - 1 do
    if i mod 4 = 0 && i / 4 < Array.length ks then Buffer.add_string b (log_line r ~clock ks.(i / 4))
    else begin
      for _ = 1 to 40 do
        Buffer.add_char b noise_alphabet.[int r (String.length noise_alphabet)]
      done;
      Buffer.add_char b '\n'
    end
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Queries *)

(* The fused extractors: each compiles to one automaton, so serve
   answers them in the compressed domain when the ratio gate allows. *)
let extractors =
  [|
    ("errcode", ".*!code{E[0-9][0-9][0-9]} .*");
    ("user", ".*user=!u{[a-z]+} .*");
    ("failure", ".*status=!s{5[0-9][0-9]} .*");
  |]

(* The string-equality selection: pairs of login lines naming the same
   user.  Select never fuses, so serve always answers it from
   decompressed text through the optimizer cursor. *)
let selection =
  ("sameuser", "sel[a, b](rgx:\".*user=!a{[a-z]+} .*user=!b{[a-z]+} .*\")")

(* An archive chunk: [lines] HTTP lines and exactly one error line,
   so the doubled archive has one [errcode] answer per copy. *)
let archive_chunk r ~lines =
  let clock = ref (int r 100_000) in
  let b = Buffer.create (lines * 64) in
  let at = int r lines in
  for i = 0 to lines - 1 do
    Buffer.add_string b (log_line r ~clock (if i = at then Error else Http))
  done;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* serve-warm schedule *)

type format = First | Window | Count | Stream

let format_name = function First -> "first" | Window -> "window" | Count -> "count" | Stream -> "stream"

(* Where the request's document sits relative to the ratio-2 gate, and
   hence which path the server should take. *)
type target = Log | Noisy | Archive

type request = { query : string; store : string; doc : string; target : target; format : format }

(* [deal n shares] deals [n] slots to formats in the given
   proportions, exactly: the counts are floor(share * n), the
   remainder going to the first formats. *)
let deal n shares =
  let total = List.fold_left (fun a (_, s) -> a + s) 0 shares in
  let base = List.map (fun (f, s) -> (f, n * s / total)) shares in
  let left = n - List.fold_left (fun a (_, c) -> a + c) 0 base in
  List.mapi (fun i (f, c) -> (f, if i < left then c + 1 else c)) base

let format_shares = [ (First, 30); (Window, 30); (Count, 20); (Stream, 20) ]

(* One pass of the serve-warm schedule: [native] requests of fused
   extractors on log documents, [fallback] on noisy documents,
   [selections] requests of the selection on any document, and
   [archive] counts on the archive, each group split over the four
   formats in fixed shares, then shuffled. *)
let serve_pass r ~log_docs ~noisy_docs ~native ~fallback ~selections ~archive =
  let reqs = ref [] in
  let group n targets queries =
    let k = ref (int r 1000) in
    List.iter
      (fun (format, c) ->
        for _ = 1 to c do
          let query = queries.(!k mod Array.length queries) in
          let doc, target = targets.(!k / Array.length queries mod Array.length targets) in
          incr k;
          reqs := { query; store = (if target = Archive then "a" else "s"); doc; target; format } :: !reqs
        done)
      (deal n format_shares)
  in
  let ext = Array.map fst extractors in
  group native (Array.map (fun d -> (d, Log)) log_docs) ext;
  group fallback (Array.map (fun d -> (d, Noisy)) noisy_docs) ext;
  group selections
    (Array.append (Array.map (fun d -> (d, Log)) log_docs) (Array.map (fun d -> (d, Noisy)) noisy_docs))
    [| fst selection |];
  for _ = 1 to archive do
    reqs := { query = "errcode"; store = "a"; doc = "archive"; target = Archive; format = Count } :: !reqs
  done;
  let a = Array.of_list (List.rev !reqs) in
  shuffle r a;
  a

let request_payload q =
  let opts =
    match q.format with
    | First -> " format=first"
    | Window -> " limit=5"
    | Count -> " format=count"
    | Stream -> ""
  in
  Printf.sprintf "QUERY %s %s %s%s" q.query q.store q.doc opts

(* ------------------------------------------------------------------ *)
(* edit-session op stream *)

type op =
  | Read of int  (* document index *)
  | Insert of { doc : int; src : int; i : int; j : int; k : int }
  | Delete of { doc : int; i : int; j : int }
  | Copy of { doc : int; i : int; j : int; k : int }

(* [edit_ops r ~lens ~edited ~n ~read_share] is [n] ops over
   documents whose current lengths are [lens] (updated as edits are
   generated).  Documents [0 .. edited-1] are edited, inserting
   factors of other documents; reads go to the others, which never
   change.  Edit positions are valid for the
   document as it will be when the op runs, and lengths stay within a
   quarter of their start. *)
let edit_ops r ~lens ~edited ~n ~read_share =
  let base = Array.copy lens in
  let ndocs = Array.length lens in
  Array.init n (fun _ ->
      if int r 100 < read_share then Read (edited + int r (ndocs - edited))
      else begin
        let d = int r edited in
        let len = lens.(d) in
        let grow = len < base.(d) * 3 / 4 and shrink = len > base.(d) * 5 / 4 in
        let kind = if grow then int r 2 else if shrink then 2 else int r 3 in
        let width = range r 10 60 in
        match kind with
        | 0 ->
            let src = (d + 1 + int r (ndocs - 1)) mod ndocs in
            let slen = lens.(src) in
            let i = range r 1 (slen - width) in
            let k = range r 1 len in
            lens.(d) <- len + width;
            Insert { doc = d; src; i; j = i + width - 1; k }
        | 1 ->
            let i = range r 1 (len - width) in
            let k = range r 1 len in
            lens.(d) <- len + width;
            Copy { doc = d; i; j = i + width - 1; k }
        | _ ->
            let w = 2 * width in
            let i = range r 1 (len - w) in
            lens.(d) <- len - w;
            Delete { doc = d; i; j = i + w - 1 }
      end)

(* The plain-text meaning of an edit, written independently of the
   program's Cde: positions are 1-based and inclusive, and an inserted
   factor starts at position [k] of the result. *)
let apply_edit texts = function
  | Read _ -> ()
  | Insert { doc; src; i; j; k } ->
      let d = texts.(doc) and f = String.sub texts.(src) (i - 1) (j - i + 1) in
      texts.(doc) <- String.sub d 0 (k - 1) ^ f ^ String.sub d (k - 1) (String.length d - k + 1)
  | Copy { doc; i; j; k } ->
      let d = texts.(doc) in
      let f = String.sub d (i - 1) (j - i + 1) in
      texts.(doc) <- String.sub d 0 (k - 1) ^ f ^ String.sub d (k - 1) (String.length d - k + 1)
  | Delete { doc; i; j } ->
      let d = texts.(doc) in
      texts.(doc) <- String.sub d 0 (i - 1) ^ String.sub d j (String.length d - j)
