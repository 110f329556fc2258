module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits
module Checked = Spanner_util.Checked

type id = int

type node = Leaf of char | Pair of id * id

(* Per-node derived length and order are stored alongside so that
   every accessor is O(1). *)
type cell = { node : node; len : int; order : int }

type store = {
  cells : cell Vec.t;
  cons : (int * int, id) Hashtbl.t; (* hash-consing of pairs *)
  char_leaves : (char, id) Hashtbl.t;
  mutable hooks : (id -> unit) list; (* node-creation observers *)
}

let create_store () =
  {
    cells = Vec.create ();
    cons = Hashtbl.create 256;
    char_leaves = Hashtbl.create 16;
    hooks = [];
  }

let on_new_node store f = store.hooks <- f :: store.hooks

let notify store id = List.iter (fun f -> f id) store.hooks

let cell store id = Vec.get store.cells id

let node store id = (cell store id).node

let len store id = (cell store id).len

let order store id = (cell store id).order

let leaf store c =
  match Hashtbl.find_opt store.char_leaves c with
  | Some id -> id
  | None ->
      let id = Vec.push store.cells { node = Leaf c; len = 1; order = 1 } in
      Hashtbl.add store.char_leaves c id;
      notify store id;
      id

let pair store l r =
  match Hashtbl.find_opt store.cons (l, r) with
  | Some id -> id
  | None ->
      let cl = cell store l and cr = cell store r in
      let len = Checked.add ~what:"document length" cl.len cr.len in
      let id = Vec.push store.cells { node = Pair (l, r); len; order = 1 + max cl.order cr.order } in
      Hashtbl.add store.cons (l, r) id;
      notify store id;
      id

let balance store id =
  match node store id with
  | Leaf _ -> 0
  | Pair (l, r) -> order store l - order store r

let store_size store = Vec.length store.cells

(* Iterative post-order (an SLP can be 10⁶ nodes deep; recursion on
   the left child is not a tail call and blows the stack).  An [id]
   is pushed unexpanded, then re-pushed tagged once its children are
   scheduled, so children are still visited before parents. *)
let iter_reachable store id f =
  let seen = Hashtbl.create 64 in
  let stack = ref [ (id, false) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (id, expanded) :: rest ->
        stack := rest;
        if expanded then f id
        else if not (Hashtbl.mem seen id) then begin
          Hashtbl.add seen id ();
          stack := (id, true) :: !stack;
          match node store id with
          | Leaf _ -> ()
          | Pair (l, r) -> stack := (l, false) :: (r, false) :: !stack
        end
  done

let reachable_size store id =
  let count = ref 0 in
  iter_reachable store id (fun _ -> incr count);
  !count

let char_at store id i =
  if i < 1 || i > len store id then
    invalid_arg (Printf.sprintf "Slp.char_at: position %d out of range (length %d)" i (len store id));
  let rec go id i =
    match node store id with
    | Leaf c -> c
    | Pair (l, r) ->
        let ll = len store l in
        if i <= ll then go l i else go r (i - ll)
  in
  go id i

(* Decompression is iterative for the same deep-SLP reason as
   [iter_reachable]: a left comb from [of_string] has depth |D|. *)
let to_string store id =
  let buf = Buffer.create (len store id) in
  let stack = ref [ id ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest -> (
        stack := rest;
        match node store id with
        | Leaf c -> Buffer.add_char buf c
        | Pair (l, r) -> stack := l :: r :: !stack)
  done;
  Buffer.contents buf

let extract_string store id i j =
  let n = len store id in
  if i < 1 || j < i || j > n + 1 then
    invalid_arg (Printf.sprintf "Slp.extract_string: bad range [%d,%d⟩ (length %d)" i j n);
  let buf = Buffer.create (j - i) in
  (* Emit 𝔇(id)[lo..hi-1] where positions are relative 1-based. *)
  let stack = ref [ (id, i, j - 1) ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (id, lo, hi) :: rest ->
        stack := rest;
        if hi >= lo then (
          match node store id with
          | Leaf c -> if lo <= 1 && hi >= 1 then Buffer.add_char buf c
          | Pair (l, r) ->
              let ll = len store l in
              let right =
                if hi > ll then [ (r, max 1 (lo - ll), hi - ll) ] else []
              in
              let left = if lo <= ll then [ (l, lo, min hi ll) ] else [] in
              stack := left @ right @ !stack)
  done;
  Buffer.contents buf

let of_string store s =
  if String.length s = 0 then invalid_arg "Slp.of_string: empty document";
  let acc = ref (leaf store s.[0]) in
  for i = 1 to String.length s - 1 do
    acc := pair store !acc (leaf store s.[i])
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Frozen snapshots *)

(* A store is a mutable arena (hash-consing tables, growable cell
   buffer), so concurrent readers race against any writer and against
   the buffer's own reallocation.  A frozen view is immutable after
   construction: safe to share across domains by construction.
   Ascending id is a valid topological order — [pair] interns children
   before parents — so no separate order array is needed.

   Two representations share the accessor surface:

   - [Heap]: plain arrays copied out of a store by [freeze];
   - [Flat]: structs-of-int-arrays over Bigarray columns, built by
     [frozen_of_columns] — the zero-copy view the arena format
     (Spanner_store.Arena, SLPAR1) lays directly over an mmapped
     file.  A leaf stores [-(1 + byte)] in the left column (ids are
     never negative, so the sign is the tag); a pair stores its
     children.  Flat columns may come from an untrusted file, so the
     decoder validates per access — O(1), typed [Corrupt_input] — and
     a hostile arena can never take an accessor out of bounds. *)

type int_array = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type frozen =
  | Heap of { fnodes : node array; flens : int array }
  | Flat of { count : int; left : int_array; right : int_array; lens : int_array }

let freeze store =
  let n = Vec.length store.cells in
  Heap
    {
      fnodes = Array.init n (fun i -> (Vec.get store.cells i).node);
      flens = Array.init n (fun i -> (Vec.get store.cells i).len);
    }

let frozen_of_columns ~count ~left ~right ~lens =
  let dim a = Bigarray.Array1.dim a in
  if count < 0 then invalid_arg "Slp.frozen_of_columns: negative count";
  if dim left < count || dim right < count || dim lens < count then
    invalid_arg "Slp.frozen_of_columns: columns shorter than count";
  Flat { count; left; right; lens }

let frozen_size = function
  | Heap h -> Array.length h.fnodes
  | Flat f -> f.count

let flat_corrupt msg = Limits.corrupt ~what:"SLPAR1" msg

let frozen_node fz id =
  match fz with
  | Heap h -> h.fnodes.(id)
  | Flat f ->
      if id < 0 || id >= f.count then invalid_arg "Slp.frozen_node: id out of range";
      let l = Bigarray.Array1.unsafe_get f.left id in
      if l < 0 then begin
        let b = -l - 1 in
        if b > 255 then flat_corrupt "leaf byte out of range";
        Leaf (Char.chr b)
      end
      else begin
        let r = Bigarray.Array1.unsafe_get f.right id in
        (* children must precede their parent: ascending ids stay a
           topological order even over hostile columns *)
        if l >= id || r < 0 || r >= id then flat_corrupt "pair child out of topological order";
        Pair (l, r)
      end

let frozen_len fz id =
  match fz with
  | Heap h -> h.flens.(id)
  | Flat f ->
      if id < 0 || id >= f.count then invalid_arg "Slp.frozen_len: id out of range";
      let n = Bigarray.Array1.unsafe_get f.lens id in
      if n < 1 then flat_corrupt "node with non-positive length";
      n

let word_bytes = Sys.word_size / 8

let frozen_bytes = function
  | Flat f -> 3 * 8 * f.count
  | Heap h ->
      (* two array headers + slots, plus one boxed block per node
         (Leaf: header + char; Pair: header + two ids) *)
      let blocks =
        Array.fold_left
          (fun acc n -> acc + match n with Leaf _ -> 2 | Pair _ -> 3)
          0 h.fnodes
      in
      word_bytes * ((2 * (Array.length h.fnodes + 1)) + blocks)

(* Metered decompression: one gauge step per emitted byte, so a
   pathological document trips its budget instead of allocating
   unboundedly before evaluation even starts. *)
let frozen_to_string ?gauge fz id =
  (* the length is a size hint only, and on a Flat view it comes from
     an untrusted column: clamp so a hostile value cannot force a
     giant allocation before the first byte is even emitted *)
  let buf = Buffer.create (min (frozen_len fz id) 65536) in
  let check =
    match gauge with None -> ignore | Some g -> fun () -> Limits.check g
  in
  let stack = ref [ id ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest -> (
        stack := rest;
        match frozen_node fz id with
        | Leaf c ->
            check ();
            Buffer.add_char buf c
        | Pair (l, r) -> stack := l :: r :: !stack)
  done;
  Buffer.contents buf

let is_c_shallow store ~c id =
  let ok = ref true in
  iter_reachable store id (fun id ->
      let n = len store id in
      if n >= 2 && Float.of_int (order store id) > c *. (log (Float.of_int n) /. log 2.0) then
        ok := false);
  !ok

let is_strongly_balanced store id =
  let ok = ref true in
  iter_reachable store id (fun id ->
      let b = balance store id in
      if b < -1 || b > 1 then ok := false);
  !ok
