module Limits = Spanner_util.Limits
module Checked = Spanner_util.Checked
module Slp = Spanner_slp.Slp

let magic = "SLPAR1\n\x00"
let version = 1
let header_bytes = 64
let header_words = 8
let byte_table_words = 256

let corrupt msg = Limits.corrupt ~what:"SLPAR1" msg
let corruptf fmt = Printf.ksprintf corrupt fmt

(* FNV-1a with the offset basis folded into 62 bits, so checksums are
   non-negative OCaml ints and round-trip through a stored word. *)
let fnv_prime = 0x100000001b3
let fnv_seed = 0x3bf29ce484222325

let fnv_update h byte = (h lxor byte) * fnv_prime land max_int

type chars = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  ints : Slp.int_array;  (* the whole file as 8-byte words *)
  chars : chars;  (* the same bytes, for the name blob and checksums *)
  size : int;  (* file bytes *)
  backing : string option;  (* absolute path of the mapping, if any *)
  node_count : int;
  name_blob_off : int;  (* byte offset of the name blob *)
  name_blob_len : int;
  frozen : Slp.frozen;
  docs : (string * Slp.id) array;  (* file order *)
  table : (string, Slp.id) Hashtbl.t;
}

let pad8 n = (n + 7) land lnot 7

(* Section offsets in words, from the node/doc/blob counts. *)
let geometry ~n ~d ~b =
  let w_left = header_words in
  let w_right = w_left + n in
  let w_len = w_right + n in
  let w_bytetab = w_len + n in
  let w_roots = w_bytetab + byte_table_words in
  let w_noff = w_roots + d in
  let w_nlen = w_noff + d in
  let blob_off = 8 * (w_nlen + d) in
  let total = blob_off + pad8 b in
  (w_left, w_right, w_len, w_bytetab, w_roots, w_noff, w_nlen, blob_off, total)

(* ------------------------------------------------------------------ *)
(* Writing *)

let pack_bytes store docs =
  (* topological renumbering of the nodes reachable from the roots:
     children first, so ascending file ids are a valid sweep order *)
  let file_id = Hashtbl.create 256 in
  let order = ref [] in
  let count = ref 0 in
  List.iter
    (fun (_, root) ->
      Slp.iter_reachable store root (fun id ->
          if not (Hashtbl.mem file_id id) then begin
            Hashtbl.add file_id id !count;
            incr count;
            order := id :: !order
          end))
    docs;
  let nodes = Array.of_list (List.rev !order) in
  let n = !count and d = List.length docs in
  let blob = Buffer.create 256 in
  let name_offs = Array.make d 0 and name_lens = Array.make d 0 in
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i (name, _) ->
      if Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "Arena.pack_bytes: duplicate document name %S" name);
      Hashtbl.add seen name ();
      name_offs.(i) <- Buffer.length blob;
      name_lens.(i) <- String.length name;
      Buffer.add_string blob name)
    docs;
  let b = Buffer.length blob in
  let w_left, w_right, w_len, w_bytetab, w_roots, w_noff, w_nlen, blob_off, total =
    geometry ~n ~d ~b
  in
  let out = Bytes.make total '\000' in
  let set_word w v = Bytes.set_int64_le out (8 * w) (Int64.of_int v) in
  Bytes.blit_string magic 0 out 0 8;
  set_word 1 version;
  set_word 2 n;
  set_word 3 d;
  set_word 4 b;
  set_word 6 total;
  for i = 0 to byte_table_words - 1 do
    set_word (w_bytetab + i) (-1)
  done;
  Array.iteri
    (fun f id ->
      match Slp.node store id with
      | Slp.Leaf c ->
          set_word (w_left + f) (-(1 + Char.code c));
          set_word (w_right + f) 0;
          set_word (w_len + f) 1;
          set_word (w_bytetab + Char.code c) f
      | Slp.Pair (l, r) ->
          set_word (w_left + f) (Hashtbl.find file_id l);
          set_word (w_right + f) (Hashtbl.find file_id r);
          set_word (w_len + f) (Slp.len store id))
    nodes;
  List.iteri
    (fun i (_, root) -> set_word (w_roots + i) (Hashtbl.find file_id root))
    docs;
  Array.iteri (fun i off -> set_word (w_noff + i) off) name_offs;
  Array.iteri (fun i len -> set_word (w_nlen + i) len) name_lens;
  Bytes.blit_string (Buffer.contents blob) 0 out blob_off b;
  let checksum lo hi =
    let h = ref fnv_seed in
    for i = lo to hi - 1 do
      h := fnv_update !h (Char.code (Bytes.unsafe_get out i))
    done;
    !h
  in
  set_word 5 (checksum header_bytes total);
  set_word 7 (checksum 0 (8 * 7));
  Bytes.unsafe_to_string out

let write_file store docs path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (pack_bytes store docs))

(* ------------------------------------------------------------------ *)
(* Opening *)

let word (ints : Slp.int_array) w = Bigarray.Array1.get ints w

(* [open_arrays] is the shared validation core: O(1) header and
   geometry checks plus the O(d) document table — never O(n). *)
let open_arrays ~backing (chars : chars) (ints : Slp.int_array) size =
  if size < header_bytes then corrupt "truncated header";
  if size land 7 <> 0 then corrupt "file size not a multiple of 8";
  for i = 0 to String.length magic - 1 do
    if Bigarray.Array1.get chars i <> magic.[i] then
      corrupt "bad magic (not an SLPAR1 arena)"
  done;
  let h = ref fnv_seed in
  for i = 0 to (8 * 7) - 1 do
    h := fnv_update !h (Char.code (Bigarray.Array1.get chars i))
  done;
  if word ints 7 <> !h then corrupt "header checksum mismatch";
  if word ints 1 <> version then corruptf "unsupported version %d" (word ints 1);
  let n = word ints 2 and d = word ints 3 and b = word ints 4 in
  (* bound each count by what could possibly fit before multiplying,
     so hostile counts cannot overflow the geometry arithmetic *)
  if n < 0 || n > size / 8 then corruptf "node count %d out of range" n;
  if d < 0 || d > size / 8 then corruptf "document count %d out of range" d;
  if b < 0 || b > size then corruptf "name blob size %d out of range" b;
  let _, _, _, _, w_roots, w_noff, w_nlen, blob_off, total = geometry ~n ~d ~b in
  if total <> size || word ints 6 <> size then
    corruptf "geometry mismatch: %d nodes, %d documents and %d name bytes do not fill %d file bytes"
      n d b size;
  let w_left = header_words in
  let sub off len = Bigarray.Array1.sub ints off len in
  let frozen =
    Slp.frozen_of_columns ~count:n ~left:(sub w_left n) ~right:(sub (w_left + n) n)
      ~lens:(sub (w_left + (2 * n)) n)
  in
  let table = Hashtbl.create (max 16 d) in
  let docs =
    Array.init d (fun i ->
        let root = word ints (w_roots + i) in
        if root < 0 || root >= n then corruptf "document %d root out of range" i;
        let off = word ints (w_noff + i) and len = word ints (w_nlen + i) in
        if off < 0 || len < 0 || off + len > b then
          corruptf "document %d name outside the name blob" i;
        let name = String.init len (fun j -> Bigarray.Array1.get chars (blob_off + off + j)) in
        if Hashtbl.mem table name then corruptf "duplicate document name %S" name;
        Hashtbl.add table name root;
        (name, root))
  in
  {
    ints;
    chars;
    size;
    backing;
    node_count = n;
    name_blob_off = blob_off;
    name_blob_len = b;
    frozen;
    docs;
    table;
  }

let openfile p =
  let fd =
    try Unix.openfile p [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      corruptf "cannot open %s: %s" p (Unix.error_message e)
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size < header_bytes then corrupt "truncated header";
      if size land 7 <> 0 then corrupt "file size not a multiple of 8";
      (* two views of one mapping: words for the columns, bytes for
         the name blob and checksums; the kernel shares the pages *)
      let ints =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.int Bigarray.c_layout false [| size / 8 |])
      in
      let chars =
        Bigarray.array1_of_genarray
          (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |])
      in
      let backing = Some (try Unix.realpath p with Unix.Unix_error _ -> p) in
      open_arrays ~backing chars ints size)

let of_string s =
  let size = String.length s in
  if size < header_bytes then corrupt "truncated header";
  if size land 7 <> 0 then corrupt "file size not a multiple of 8";
  let chars = Bigarray.Array1.create Bigarray.char Bigarray.c_layout size in
  String.iteri (fun i c -> Bigarray.Array1.set chars i c) s;
  let ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (size / 8) in
  let bs = Bytes.unsafe_of_string s in
  for w = 0 to (size / 8) - 1 do
    Bigarray.Array1.set ints w (Int64.to_int (Bytes.get_int64_le bs (8 * w)))
  done;
  open_arrays ~backing:None chars ints size

(* ------------------------------------------------------------------ *)
(* Deferred full validation *)

let validate t =
  let h = ref fnv_seed in
  for i = header_bytes to t.size - 1 do
    h := fnv_update !h (Char.code (Bigarray.Array1.unsafe_get t.chars i))
  done;
  if word t.ints 5 <> !h then corrupt "body checksum mismatch";
  let n = t.node_count in
  let w_left = header_words in
  let left i = word t.ints (w_left + i)
  and right i = word t.ints (w_left + n + i)
  and len i = word t.ints (w_left + (2 * n) + i) in
  for i = 0 to n - 1 do
    let l = left i in
    if l < 0 then begin
      if -l - 1 > 255 then corruptf "node %d: leaf byte out of range" i;
      if len i <> 1 then corruptf "node %d: leaf with length %d" i (len i)
    end
    else begin
      let r = right i in
      if l >= i || r < 0 || r >= i then
        corruptf "node %d: pair child out of topological order" i;
      let sum =
        try Checked.add ~what:"SLPAR1" (len l) (len r)
        with Limits.Spanner_error _ -> corruptf "node %d: derived length overflows int" i
      in
      if len i <> sum then corruptf "node %d: inconsistent derived length" i
    end
  done;
  let w_bytetab = w_left + (3 * n) in
  for c = 0 to 255 do
    let e = word t.ints (w_bytetab + c) in
    if e <> -1 then begin
      if e < 0 || e >= n then corruptf "byte table entry %d out of range" c;
      if left e <> -(1 + c) then corruptf "byte table entry %d points at the wrong node" c
    end
  done

(* ------------------------------------------------------------------ *)
(* Access *)

let frozen_view t = t.frozen
let node_count t = t.node_count
let docs t = Array.copy t.docs
let find t name = Hashtbl.find_opt t.table name

let leaf t c =
  let e = word t.ints (header_words + (3 * t.node_count) + Char.code c) in
  if e < 0 then None else Some e

let total_len t =
  Array.fold_left (fun acc (_, root) -> acc + Slp.frozen_len t.frozen root) 0 t.docs

let path t = t.backing
let mapped_bytes t = t.size

(* Sum of the resident set of this file's mappings, from
   /proc/self/smaps.  The arena is mapped twice (word and byte views
   of the same pages), so take the larger VMA's Rss rather than
   double-counting shared physical pages. *)
let resident_bytes t =
  match t.backing with
  | None -> t.size
  | Some p -> (
      match open_in "/proc/self/smaps" with
      | exception Sys_error _ -> 0
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let best = ref 0 in
              let ours = ref false in
              (try
                 while true do
                   let line = input_line ic in
                   let ln = String.length line and pn = String.length p in
                   if ln > pn && String.sub line (ln - pn) pn = p
                      && String.contains line '-'
                   then ours := true
                   else if String.length line >= 4 && String.sub line 0 4 = "Rss:" then begin
                     if !ours then begin
                       let kb =
                         try Scanf.sscanf (String.sub line 4 (ln - 4)) " %d" Fun.id
                         with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0
                       in
                       best := max !best (kb * 1024)
                     end;
                     ours := false
                   end
                 done
               with End_of_file -> ());
              !best))
