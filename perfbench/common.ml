(* Shared harness: clock, span recorder, statistics, process facts,
   result JSON and the tuple oracle.  Nothing here calls into the
   program except the oracle, which uses Compiled.eval and
   Span_relation.select_equal only. *)

open Spanner_core

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans

   A span is (name, start, end, parent, op).  Spans stay in memory,
   in a growable array guarded by a mutex (serve-warm's replay records
   from a worker domain and two submitter threads), and are summarised
   when the run ends.  With [enabled = false] every call is one branch
   and no allocation, which is what the untraced replays measure. *)

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;  (* index of the parent span, -1 for an op's root *)
  op : int;
}

type tracer = {
  mutable enabled : bool;
  mutable spans : span array;
  mutable len : int;
  lock : Mutex.t;
}

let tracer = { enabled = false; spans = [||]; len = 0; lock = Mutex.create () }

let reset_spans () =
  tracer.spans <- [||];
  tracer.len <- 0

let dummy = { name = ""; start = 0.; stop = 0.; parent = -1; op = -1 }

(* [open_span ~parent ~op name] starts a span and returns its index
   (-1 when tracing is off). *)
let open_span ~parent ~op name =
  if not tracer.enabled then -1
  else begin
    let s = { name; start = now (); stop = nan; parent; op } in
    Mutex.lock tracer.lock;
    if tracer.len = Array.length tracer.spans then begin
      let bigger = Array.make (max 1024 (2 * tracer.len)) dummy in
      Array.blit tracer.spans 0 bigger 0 tracer.len;
      tracer.spans <- bigger
    end;
    let i = tracer.len in
    tracer.spans.(i) <- s;
    tracer.len <- i + 1;
    Mutex.unlock tracer.lock;
    i
  end

let close_span i =
  if i >= 0 then begin
    Mutex.lock tracer.lock;
    let s = tracer.spans.(i) in
    Mutex.unlock tracer.lock;
    s.stop <- now ()
  end

let with_span ~parent ~op name f =
  let i = open_span ~parent ~op name in
  match f i with
  | v ->
      close_span i;
      v
  | exception e ->
      close_span i;
      raise e

(* Per span name: call count, total duration and total self time (a
   span's duration minus the time its children cover; children never
   overlap their siblings here). *)
type span_sum = { calls : int; total : float; self : float; durations : float list }

let summarise_spans () =
  let n = tracer.len in
  let spans = Array.sub tracer.spans 0 n in
  let child_time = Array.make n 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child_time.(s.parent) <- child_time.(s.parent) +. (s.stop -. s.start))
    spans;
  let tbl = Hashtbl.create 32 in
  Array.iteri
    (fun i s ->
      let d = s.stop -. s.start in
      let prev =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; total = 0.; self = 0.; durations = [] }
      in
      Hashtbl.replace tbl s.name
        {
          calls = prev.calls + 1;
          total = prev.total +. d;
          self = prev.self +. (d -. child_time.(i));
          durations = d :: prev.durations;
        })
    spans;
  tbl

let span_get tbl name =
  Option.value (Hashtbl.find_opt tbl name)
    ~default:{ calls = 0; total = 0.; self = 0.; durations = [] }

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* Nearest-rank percentile over a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) k))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median_of l = percentile (sorted_of_list l) 0.5
let mean_of l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Process facts from /proc *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* VmHWM of [pid] in MB: the resident-set high-water mark. *)
let vm_hwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let clk_tck = 100.

(* utime + stime of [pid] in seconds, from /proc/PID/stat (fields 14
   and 15, counted after the parenthesised command name). *)
let proc_cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clk_tck

(* CPU seconds of this process (all threads and domains). *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Result JSON *)

type json = Num of float | Int of int | Str of string | Bool of bool | Obj of (string * json) list

let rec json_to_string = function
  | Num f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
  | Obj kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> json_to_string (Str k) ^ ": " ^ json_to_string v) kvs)
      ^ "}"

(* A measured metric, tagged with its unit. *)
let metric unit v = Obj [ ("value", Num v); ("unit", Str unit) ]

(* One run fact per span name: calls, total and self time. *)
let span_facts tbl =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (name, s) ->
         ( "span." ^ name,
           Str (Printf.sprintf "calls=%d total_ms=%.3f self_ms=%.3f" s.calls (s.total *. 1000.) (s.self *. 1000.)) ))

(* ------------------------------------------------------------------ *)
(* Oracle

   Tuples are compared in a canonical text form independent of the
   program's printer: variables sorted by name, "name=left,right"
   joined by ";".  Relations become sorted lists of such strings. *)

let canon_tuple t =
  Span_tuple.bindings t
  |> List.map (fun (x, s) -> (Variable.name x, Span.left s, Span.right s))
  |> List.sort compare
  |> List.map (fun (x, l, r) -> Printf.sprintf "%s=%d,%d" x l r)
  |> String.concat ";"

let canon_relation r = List.sort compare (List.map canon_tuple (Span_relation.tuples r))

(* A digest of a relation's canonical set; equal digests mean equal
   sets up to an MD5 collision. *)
let digest_relation r = Digest.string (String.concat "\n" (canon_relation r))

(* [parse_wire_tuple s] reads a tuple as the server prints it,
   "(x ↦ [1,3⟩, y ↦ [4,6⟩)", into the canonical form. *)
let parse_wire_tuple s =
  let n = String.length s in
  let arrow = " \xe2\x86\xa6 [" in
  let rec scan i acc =
    match String.index_from_opt s i '\xe2' with
    | Some j when j >= 1 && j + String.length arrow - 1 <= n && String.sub s (j - 1) (String.length arrow) = arrow ->
        let name_end = j - 1 in
        let name_start =
          let k = ref name_end in
          while !k > 0 && s.[!k - 1] <> '(' && s.[!k - 1] <> ' ' do decr k done;
          !k
        in
        let name = String.sub s name_start (name_end - name_start) in
        let nums_start = j - 1 + String.length arrow in
        Scanf.sscanf (String.sub s nums_start (n - nums_start)) "%d,%d" (fun l r ->
            scan (nums_start + 1) ((name, l, r) :: acc))
    | Some j -> scan (j + 1) acc
    | None -> acc
  in
  if n < 2 || s.[0] <> '(' || s.[n - 1] <> ')' then None
  else
    Some
      (scan 0 []
      |> List.sort compare
      |> List.map (fun (x, l, r) -> Printf.sprintf "%s=%d,%d" x l r)
      |> String.concat ";")

(* The oracle for a fused extractor: Compiled.eval on the plain text. *)
let oracle_compile formula = Compiled.of_formula (Regex_formula.parse formula)
let oracle_formula formula text = Compiled.eval (oracle_compile formula) text

(* The oracle for sel[vars](rgx:"formula"): the formula's relation,
   then the string-equality selection. *)
let oracle_selection ~vars formula text =
  Span_relation.select_equal text
    (Variable.set_of_list (List.map Variable.of_string vars))
    (oracle_formula formula text)

(* ------------------------------------------------------------------ *)
(* Small helpers *)

let fail fmt = Printf.ksprintf failwith fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* GC counters summed over domains: minor words, promoted words,
   major collections. *)
let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, float_of_int s.Gc.major_collections)

let gc_metrics ~ops (m0, p0, c0) (m1, p1, c1) =
  let ops = float_of_int (max 1 ops) in
  [
    ("gc.minor_words_per_op", metric "words" ((m1 -. m0) /. ops));
    ("gc.promoted_words_per_op", metric "words" ((p1 -. p0) /. ops));
    ("gc.major_collections_per_kop", metric "count" ((c1 -. c0) /. ops *. 1000.));
  ]

(* Which request class holds a percentile: the dominant class among
   the ops ranked within two points of it, and that class's share of
   them.  A share near 1 means the percentile sits inside one class,
   not on the boundary between two. *)
let percentile_class (ops : (string * float) list) p =
  let a = Array.of_list ops in
  Array.sort (fun (_, x) (_, y) -> compare x y) a;
  let n = Array.length a in
  if n = 0 then ("none", 0.)
  else begin
    let lo = max 0 (int_of_float ((p -. 0.02) *. float_of_int n))
    and hi = min (n - 1) (int_of_float ((p +. 0.02) *. float_of_int n)) in
    let tbl = Hashtbl.create 8 in
    for i = lo to hi do
      let c = fst a.(i) in
      Hashtbl.replace tbl c (1 + Option.value (Hashtbl.find_opt tbl c) ~default:0)
    done;
    let best, k = Hashtbl.fold (fun c k (bc, bk) -> if k > bk then (c, k) else (bc, bk)) tbl ("none", 0) in
    (best, float_of_int k /. float_of_int (hi - lo + 1))
  end

let class_facts ops =
  let c50, s50 = percentile_class ops 0.5 and c90, s90 = percentile_class ops 0.9 in
  [ ("p50_class", Str c50); ("p50_class_share", Num s50); ("p90_class", Str c90); ("p90_class_share", Num s90) ]

(* Per class: op count and latency quartiles, in ms. *)
let class_summary ops =
  let classes = List.sort_uniq compare (List.map fst ops) in
  List.map
    (fun c ->
      let a = sorted_of_list (List.filter_map (fun (c', l) -> if c' = c then Some l else None) ops) in
      ( "class." ^ c,
        Str
          (Printf.sprintf "n=%d p10=%.3f p50=%.3f p90=%.3f" (Array.length a) (percentile a 0.1 *. 1000.)
             (percentile a 0.5 *. 1000.) (percentile a 0.9 *. 1000.)) ))
    classes
