type t = { bits : Bytes.t; n : int }

(* Bits are packed little-endian into bytes: bit [i] lives in byte
   [i lsr 3] at position [i land 7]. Bytes (not int arrays) keep
   copying and hashing simple and allocation-cheap. *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let capacity s = s.n

let copy s = { bits = Bytes.copy s.bits; n = s.n }

let check s i =
  if i < 0 || i >= s.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of bounds (capacity %d)" i s.n)

let add s i =
  check s i;
  let b = Bytes.get_uint8 s.bits (i lsr 3) in
  Bytes.set_uint8 s.bits (i lsr 3) (b lor (1 lsl (i land 7)))

let remove s i =
  check s i;
  let b = Bytes.get_uint8 s.bits (i lsr 3) in
  Bytes.set_uint8 s.bits (i lsr 3) (b land lnot (1 lsl (i land 7)))

let mem s i =
  check s i;
  Bytes.get_uint8 s.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let is_empty s =
  let rec loop i = i >= Bytes.length s.bits || (Bytes.get s.bits i = '\000' && loop (i + 1)) in
  loop 0

let popcount_byte =
  let table = Array.init 256 (fun b ->
      let rec count b = if b = 0 then 0 else (b land 1) + count (b lsr 1) in
      count b)
  in
  fun b -> table.(b)

let cardinal s =
  let total = ref 0 in
  for i = 0 to Bytes.length s.bits - 1 do
    total := !total + popcount_byte (Bytes.get_uint8 s.bits i)
  done;
  !total

let equal a b = a.n = b.n && Bytes.equal a.bits b.bits

let subset a b =
  if a.n <> b.n then invalid_arg "Bitset.subset: capacity mismatch";
  let rec loop i =
    i >= Bytes.length a.bits
    || (Bytes.get_uint8 a.bits i land lnot (Bytes.get_uint8 b.bits i) = 0 && loop (i + 1))
  in
  loop 0

let union_into ~into src =
  if into.n <> src.n then invalid_arg "Bitset.union_into: capacity mismatch";
  let changed = ref false in
  for i = 0 to Bytes.length into.bits - 1 do
    let old = Bytes.get_uint8 into.bits i in
    let merged = old lor Bytes.get_uint8 src.bits i in
    if merged <> old then begin
      changed := true;
      Bytes.set_uint8 into.bits i merged
    end
  done;
  !changed

let inter a b =
  if a.n <> b.n then invalid_arg "Bitset.inter: capacity mismatch";
  let r = create a.n in
  for i = 0 to Bytes.length a.bits - 1 do
    Bytes.set_uint8 r.bits i (Bytes.get_uint8 a.bits i land Bytes.get_uint8 b.bits i)
  done;
  r

(* lowest set bit of a byte (8 for 0): the byte-at-a-time scans below
   skip zero bytes and finish each hit with one table lookup *)
let low_bit =
  let table = Array.make 256 8 in
  for b = 1 to 255 do
    let rec low i = if b land (1 lsl i) <> 0 then i else low (i + 1) in
    table.(b) <- low 0
  done;
  fun b -> table.(b)

(* The forward scans below run 48 bits at a stride: three unboxed
   16-bit reads build a 48-bit window in a native int (int64 reads
   would box), zero windows are skipped word-parallel, and a hit
   narrows to its byte before the final table lookup.  Bits >= n are
   never set, so no trailing masking is needed — the remainder after
   the last full window falls back to the byte loop. *)
let window bits b =
  Bytes.get_uint16_le bits b
  lor (Bytes.get_uint16_le bits (b + 2) lsl 16)
  lor (Bytes.get_uint16_le bits (b + 4) lsl 32)

(* lowest set bit of a nonzero 48-bit window, as index [base*8 ..] *)
let low_of_window base w =
  let rec narrow k =
    let byte = (w lsr (k lsl 3)) land 0xFF in
    if byte <> 0 then ((base + k) lsl 3) lor low_bit byte else narrow (k + 1)
  in
  narrow 0

let first_from s i =
  if i >= s.n then -1
  else begin
    let i = max i 0 in
    let bits = s.bits in
    let nb = Bytes.length bits in
    let rec bytes b =
      if b >= nb then -1
      else
        let cur = Bytes.get_uint8 bits b in
        if cur <> 0 then (b lsl 3) lor low_bit cur else bytes (b + 1)
    in
    let rec words b =
      if b + 6 > nb then bytes b
      else
        let w = window bits b in
        if w <> 0 then low_of_window b w else words (b + 6)
    in
    let b0 = i lsr 3 in
    let cur = Bytes.get_uint8 bits b0 land (0xFF lsl (i land 7)) land 0xFF in
    if cur <> 0 then (b0 lsl 3) lor low_bit cur else words (b0 + 1)
  end

let first_common_from a b i =
  if a.n <> b.n then invalid_arg "Bitset.first_common_from: capacity mismatch";
  if i >= a.n then -1
  else begin
    let i = max i 0 in
    let ab = a.bits and bb = b.bits in
    let nb = Bytes.length ab in
    let rec bytes k =
      if k >= nb then -1
      else
        let cur = Bytes.get_uint8 ab k land Bytes.get_uint8 bb k in
        if cur <> 0 then (k lsl 3) lor low_bit cur else bytes (k + 1)
    in
    let rec words k =
      if k + 6 > nb then bytes k
      else
        let w = window ab k land window bb k in
        if w <> 0 then low_of_window k w else words (k + 6)
    in
    let b0 = i lsr 3 in
    let cur =
      Bytes.get_uint8 ab b0 land Bytes.get_uint8 bb b0
      land (0xFF lsl (i land 7))
      land 0xFF
    in
    if cur <> 0 then (b0 lsl 3) lor low_bit cur else words (b0 + 1)
  end

(* first_from of (a∧c) ∨ (a∧d) ∨ (b∧d), fused into one pass: the
   split-candidate scan of matrix enumeration asks, per position, for
   the earliest index viable under any of three pairings, and scanning
   the four sets together reads each window once instead of six times
   across three two-set scans. *)
let first_split_from a b c d i =
  if a.n <> b.n || b.n <> c.n || c.n <> d.n then
    invalid_arg "Bitset.first_split_from: capacity mismatch";
  if i >= a.n then -1
  else begin
    let i = max i 0 in
    let ab = a.bits and bb = b.bits and cb = c.bits and db = d.bits in
    let nb = Bytes.length ab in
    let combine wa wb wc wd = (wa land (wc lor wd)) lor (wb land wd) in
    let rec bytes k =
      if k >= nb then -1
      else
        let cur =
          combine (Bytes.get_uint8 ab k) (Bytes.get_uint8 bb k) (Bytes.get_uint8 cb k)
            (Bytes.get_uint8 db k)
        in
        if cur <> 0 then (k lsl 3) lor low_bit cur else bytes (k + 1)
    in
    let rec words k =
      if k + 6 > nb then bytes k
      else
        let w = combine (window ab k) (window bb k) (window cb k) (window db k) in
        if w <> 0 then low_of_window k w else words (k + 6)
    in
    let b0 = i lsr 3 in
    let cur =
      combine (Bytes.get_uint8 ab b0) (Bytes.get_uint8 bb b0) (Bytes.get_uint8 cb b0)
        (Bytes.get_uint8 db b0)
      land (0xFF lsl (i land 7))
      land 0xFF
    in
    if cur <> 0 then (b0 lsl 3) lor low_bit cur else words (b0 + 1)
  end

(* Raw byte access for byte-parallel algorithms ({!Bitmatrix.transpose}).
   Byte [k] holds bits [8k .. 8k+7], low bit first. *)
let byte_length s = Bytes.length s.bits
let get_byte s k = Bytes.get_uint8 s.bits k
let set_byte s k b = Bytes.set_uint8 s.bits k b

let iter f s =
  for byte = 0 to Bytes.length s.bits - 1 do
    let b = Bytes.get_uint8 s.bits byte in
    if b <> 0 then
      for bit = 0 to 7 do
        if b land (1 lsl bit) <> 0 then f ((byte lsl 3) lor bit)
      done
  done

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let choose s =
  let result = ref None in
  (try
     iter
       (fun i ->
         result := Some i;
         raise Exit)
       s
   with Exit -> ());
  !result

let clear s = Bytes.fill s.bits 0 (Bytes.length s.bits) '\000'

let hash s = Hashtbl.hash s.bits

let key s = Bytes.to_string s.bits

let compare a b =
  let c = Int.compare a.n b.n in
  if c <> 0 then c else Bytes.compare a.bits b.bits

(* ------------------------------------------------------------------ *)
(* Subset tables                                                       *)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let seen_pair tbl ~capacity i s =
  let members =
    match Tbl.find_opt tbl s with
    | Some members -> members
    | None ->
        let members = create capacity in
        Tbl.add tbl s members;
        members
  in
  let seen = mem members i in
  if not seen then add members i;
  seen

(* ------------------------------------------------------------------ *)
(* Reachability over dense state numbers                               *)

let close s succ =
  let stack = ref (elements s) in
  let visit q =
    if not (mem s q) then begin
      add s q;
      stack := q :: !stack
    end
  in
  let rec loop () =
    match !stack with
    | [] -> ()
    | q :: rest ->
        stack := rest;
        succ q visit;
        loop ()
  in
  loop ();
  s

let reverse n succ =
  let preds = Array.make (max n 1) [] in
  for q = 0 to n - 1 do
    succ q (fun dst -> preds.(dst) <- q :: preds.(dst))
  done;
  fun q visit -> List.iter visit preds.(q)
