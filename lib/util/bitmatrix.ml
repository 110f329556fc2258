type t = { rows : Bitset.t array; n : int }

let create n = { rows = Array.init n (fun _ -> Bitset.create n); n }

let identity n =
  let m = create n in
  for i = 0 to n - 1 do
    Bitset.add m.rows.(i) i
  done;
  m

let dim m = m.n

let get m i j = Bitset.mem m.rows.(i) j

let set m i j = Bitset.add m.rows.(i) j

let row m i = m.rows.(i)

let mul a b =
  if a.n <> b.n then invalid_arg "Bitmatrix.mul: dimension mismatch";
  let r = create a.n in
  for i = 0 to a.n - 1 do
    let row_i = r.rows.(i) in
    Bitset.iter (fun k -> ignore (Bitset.union_into ~into:row_i b.rows.(k))) a.rows.(i)
  done;
  r

let union a b =
  if a.n <> b.n then invalid_arg "Bitmatrix.union: dimension mismatch";
  let r = create a.n in
  for i = 0 to a.n - 1 do
    ignore (Bitset.union_into ~into:r.rows.(i) a.rows.(i));
    ignore (Bitset.union_into ~into:r.rows.(i) b.rows.(i))
  done;
  r

let copy m = { rows = Array.map Bitset.copy m.rows; n = m.n }

let transitive_closure m =
  (* Floyd–Warshall specialised to booleans: if i reaches k, fold k's row
     into i's. Rows are bitsets, so each fold is word-parallel. *)
  let r = copy m in
  for i = 0 to r.n - 1 do
    Bitset.add r.rows.(i) i
  done;
  for k = 0 to r.n - 1 do
    for i = 0 to r.n - 1 do
      if Bitset.mem r.rows.(i) k then ignore (Bitset.union_into ~into:r.rows.(i) r.rows.(k))
    done
  done;
  r

let apply_row m s =
  if Bitset.capacity s <> m.n then invalid_arg "Bitmatrix.apply_row: dimension mismatch";
  let out = Bitset.create m.n in
  Bitset.iter (fun i -> ignore (Bitset.union_into ~into:out m.rows.(i))) s;
  out

let equal a b = a.n = b.n && Array.for_all2 Bitset.equal a.rows b.rows
