module Limits = Spanner_util.Limits

let magic = "SLPDB1\n"

let corrupt msg = Limits.corrupt ~what:"SLPDB" msg
let corruptf fmt = Printf.ksprintf corrupt fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* unsigned LEB128 *)
let write_varint buf n =
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  if n < 0 then invalid_arg "Serialize: negative varint";
  go n

let write_buffer db buf =
  Buffer.add_string buf magic;
  let store = Doc_db.store db in
  (* topological numbering of reachable nodes, children first *)
  let file_id = Hashtbl.create 256 in
  let order = ref [] in
  let count = ref 0 in
  List.iter
    (fun name ->
      Slp.iter_reachable store (Doc_db.find db name) (fun id ->
          if not (Hashtbl.mem file_id id) then begin
            Hashtbl.add file_id id !count;
            incr count;
            order := id :: !order
          end))
    (Doc_db.names db);
  let nodes = List.rev !order in
  write_varint buf !count;
  List.iter
    (fun id ->
      match Slp.node store id with
      | Slp.Leaf c ->
          Buffer.add_char buf '\000';
          Buffer.add_char buf c
      | Slp.Pair (l, r) ->
          Buffer.add_char buf '\001';
          write_varint buf (Hashtbl.find file_id l);
          write_varint buf (Hashtbl.find file_id r))
    nodes;
  let names = Doc_db.names db in
  write_varint buf (List.length names);
  List.iter
    (fun name ->
      write_varint buf (String.length name);
      Buffer.add_string buf name;
      write_varint buf (Hashtbl.find file_id (Doc_db.find db name)))
    names

let write_string db =
  let buf = Buffer.create 4096 in
  write_buffer db buf;
  Buffer.contents buf

let write_channel db oc = output_string oc (write_string db)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

(* The reader is positional over an abstract byte source pulled
   through one reused buffer, so every size field can be validated
   against the number of bytes actually left before anything is
   allocated: hostile inputs fail with a typed [Corrupt_input] in
   O(1) space instead of a giant [Array.make], and a channel is
   parsed in O(buffer) extra memory instead of being slurped into a
   second whole-file string.

   [total] is the byte count of the source when the source can tell
   (a string, a seekable channel); on a pipe it is unknown and the
   count/length sanity checks degrade gracefully to plain truncation
   errors — still typed, never a huge allocation driven by a count
   field alone (node and document loops allocate per entry read). *)

type reader = {
  refill : bytes -> int -> int;  (* fill up to [len] bytes, 0 = eof *)
  buf : bytes;
  mutable lo : int;  (* next unread byte in [buf] *)
  mutable hi : int;  (* end of valid bytes in [buf] *)
  mutable consumed : int;  (* bytes handed out before buf.[lo] *)
  total : int option;  (* source size, when knowable *)
}

let reader_of_string data =
  {
    refill = (fun _ _ -> 0);
    buf = Bytes.unsafe_of_string data;
    lo = 0;
    hi = String.length data;
    consumed = 0;
    total = Some (String.length data);
  }

let chunk = 65536

let reader_of_channel ic =
  let total =
    (* [In_channel.length] works on regular files; on a pipe it fails
       or reports a useless size — treat anything non-positive as
       unknown rather than rejecting valid data against it *)
    match In_channel.length ic with
    | n ->
        let left = Int64.sub n (In_channel.pos ic) in
        if Int64.compare left 0L > 0 && Int64.compare left (Int64.of_int max_int) <= 0
        then Some (Int64.to_int left)
        else None
    | exception Sys_error _ -> None
  in
  {
    refill = (fun b len -> In_channel.input ic b 0 len);
    buf = Bytes.create chunk;
    lo = 0;
    hi = 0;
    consumed = 0;
    total;
  }

(* bytes not yet fetched from the source *)
let unfetched r =
  match r.total with Some t -> t - (r.consumed + r.hi) | None -> max_int

(* bytes left to parse, including what is already buffered *)
let left r =
  let u = unfetched r in
  if u = max_int then max_int else (r.hi - r.lo) + u

let fill r =
  if r.lo >= r.hi then begin
    r.consumed <- r.consumed + r.hi;
    let n = r.refill r.buf (Bytes.length r.buf) in
    r.lo <- 0;
    r.hi <- n;
    n > 0
  end
  else true

let byte r =
  if not (fill r) then corrupt "truncated file";
  let b = Char.code (Bytes.unsafe_get r.buf r.lo) in
  r.lo <- r.lo + 1;
  b

let read_bytes r len =
  if len <= r.hi - r.lo then begin
    (* fast path: already buffered *)
    let s = Bytes.sub_string r.buf r.lo len in
    r.lo <- r.lo + len;
    s
  end
  else begin
    (* accumulate through a Buffer so a hostile length field on an
       unsized source cannot force a giant up-front allocation —
       memory grows only with bytes actually delivered *)
    let out = Buffer.create (min len (Bytes.length r.buf)) in
    let filled = ref 0 in
    while !filled < len do
      if not (fill r) then corrupt "truncated file";
      let take = min (len - !filled) (r.hi - r.lo) in
      Buffer.add_subbytes out r.buf r.lo take;
      r.lo <- r.lo + take;
      filled := !filled + take
    done;
    Buffer.contents out
  end

let at_eof r = not (fill r)

let read_varint r =
  let rec go shift acc =
    (* 9 groups of 7 bits cover the 62 value bits of an OCaml int;
       a 10th continuation byte cannot be canonical. *)
    if shift >= 63 then corrupt "varint too long";
    let b = byte r in
    let chunk = b land 0x7f in
    if chunk > max_int lsr shift then corrupt "varint overflows";
    let acc = acc lor (chunk lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc
    else if chunk = 0 && shift > 0 then corrupt "non-canonical varint"
    else acc
  in
  go 0 0

let read_reader r =
  let mlen = String.length magic in
  (match read_bytes r mlen with
  | m when m <> magic -> corrupt "bad magic (not an SLPDB file)"
  | _ -> ()
  | exception Limits.Spanner_error _ -> corrupt "bad magic (not an SLPDB file)");
  let db = Doc_db.create () in
  let store = Doc_db.store db in
  let count = read_varint r in
  (* every node costs at least 2 bytes (tag + payload) *)
  if count > left r / 2 then
    corruptf "node count %d exceeds the %d bytes left" count (left r);
  let ids = Array.make (max count 1) (-1) in
  for i = 0 to count - 1 do
    match byte r with
    | 0 -> ids.(i) <- Slp.leaf store (Char.chr (byte r))
    | 1 ->
        let l = read_varint r in
        let rt = read_varint r in
        if l >= i || rt >= i then corrupt "node references a later node";
        ids.(i) <-
          (try Slp.pair store ids.(l) ids.(rt)
           with Limits.Spanner_error (Limits.Eval_failure _) ->
             corruptf "node %d: derived length overflows int" i)
    | _ -> corrupt "bad node tag"
  done;
  let ndocs = read_varint r in
  (* every document entry costs at least 2 bytes (length + root) *)
  if ndocs > left r / 2 then
    corruptf "document count %d exceeds the %d bytes left" ndocs (left r);
  for _ = 1 to ndocs do
    let len = read_varint r in
    if len > left r then corruptf "document name length %d exceeds the %d bytes left" len (left r);
    let name = read_bytes r len in
    let root = read_varint r in
    if root >= count then corrupt "document root out of range";
    if Doc_db.find_opt db name <> None then corruptf "duplicate document name %S" name;
    Doc_db.add db name ids.(root)
  done;
  if not (at_eof r) then corruptf "%d trailing bytes after the document table" (left r);
  db

let read_string data = read_reader (reader_of_string data)

let read_channel ic = read_reader (reader_of_channel ic)

let write_file db path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel db oc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
