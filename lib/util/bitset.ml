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
