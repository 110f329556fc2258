(* Words are 63-bit OCaml ints stored as 64-bit slots of [Bytes]: the
   unsafe primitives below compile to plain loads and stores (the int64
   never boxes), and a [Bytes] block holds no pointers for the GC to
   trace.  Every offset is a word index, bounds are the slab's own
   arithmetic. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let bits = 63
let get b i = Int64.to_int (get64 b (i lsl 3))
let set b i w = set64 b (i lsl 3) (Int64.of_int w)
let words k = Bytes.create (k lsl 3)

(* Index of the lowest set bit of a nonzero word.  The powers 2^0 ..
   2^61 leave distinct remainders mod 67 (2 generates the units mod
   67); 2^62 is the sign bit, negative as an int. *)
let low_table =
  let t = Bytes.make 67 '\000' in
  for b = 0 to 61 do
    Bytes.set_uint8 t ((1 lsl b) mod 67) b
  done;
  t

let low_index w =
  let low = w land -w in
  if low < 0 then 62 else Bytes.get_uint8 low_table (low mod 67)

(* a loop, not [Bytes.fill]: blocks are a few words, below the cost of
   a C call *)
let zero b off k =
  for i = off to off + k - 1 do
    set b i 0
  done

let set_bit b row j = set b (row + (j / bits)) (get b (row + (j / bits)) lor (1 lsl (j mod bits)))
let test_bit b row j = (get b (row + (j / bits)) lsr (j mod bits)) land 1 <> 0

(* dst row |= src row, [k] words *)
let or_row b dst src_b src k =
  for i = 0 to k - 1 do
    set b (dst + i) (get b (dst + i) lor get src_b (src + i))
  done

(* Blocks live in chunks, one [Bytes] each, that are never reallocated:
   a filled block never moves, so a reader on another domain that got
   its slot from the preparing one reads words nobody writes again.
   Chunk [i] holds [first · 2^i] blocks (at most [2^chunk_bits]), and a
   slot is its chunk's index above [chunk_bits] bits of offset.  Chunk
   0 has a field of its own: most slabs (each [Incr] summary is one)
   never need a second, and the table of the others is made once, on
   the first, and never replaced.  A block is [bw] words: pure, mixed,
   pure's transpose, mixed's transpose. *)
let chunk_bits = 24
let max_chunks = 40 (* even from one-block first chunks, more blocks than any memory holds *)

type t = {
  n : int;
  stride : int;  (* words per row *)
  functional : bool;
  pw : int;  (* words of pure: n (a map) or n rows *)
  rw : int;  (* words of a kind stored as rows: n rows *)
  bw : int;  (* words per block *)
  first : int;
  head : Bytes.t;  (* chunk 0 *)
  mutable tail : Bytes.t array;  (* chunk [i] at [i - 1]; each set once, before its blocks *)
  mutable last : int;  (* the chunk being filled *)
  mutable fill : int;  (* its blocks in use *)
}

let stride_of n = max 1 ((n + bits - 1) / bits)
let chunk_size t i = min (t.first lsl min i chunk_bits) (1 lsl chunk_bits)

let create ~states ~functional k =
  let n = max 0 states in
  let stride = stride_of n in
  let pw = if functional then n else n * stride and rw = n * stride in
  let first = max 1 (min k (1 lsl chunk_bits)) in
  let bw = pw + (3 * rw) in
  { n; stride; functional; pw; rw; bw; first; head = words (first * bw); tail = [||]; last = 0; fill = 0 }

(* The buffer and first word of the block in slot [s]; pure starts
   there, mixed [pw] words on, the transposes [rw] words apart. *)
let buf t s =
  let c = s lsr chunk_bits in
  if c = 0 then t.head else t.tail.(c - 1)

let base t s = (s land ((1 lsl chunk_bits) - 1)) * t.bw

(* Only pure and mixed are cleared: [seal] writes the transposes whole. *)
let alloc t =
  if t.fill = chunk_size t t.last then begin
    let c = t.last + 1 in
    if c = max_chunks then invalid_arg "Wordrel.alloc: slab full";
    if c = 1 then t.tail <- Array.make (max_chunks - 1) Bytes.empty;
    t.tail.(c - 1) <- words (chunk_size t c * t.bw);
    t.last <- c;
    t.fill <- 0
  end;
  let s = (t.last lsl chunk_bits) lor t.fill in
  t.fill <- t.fill + 1;
  let b = buf t s and o = base t s in
  if t.functional then
    for i = o to o + t.pw - 1 do
      set b i (-1)
    done
  else zero b o t.pw;
  zero b (o + t.pw) t.rw;
  s

let set_pure t s p q =
  let b = buf t s and o = base t s in
  if t.functional then begin
    let old = get b (o + p) in
    if old >= 0 && old <> q then invalid_arg "Wordrel.set_pure: a functional slab maps each state once";
    set b (o + p) q
  end
  else set_bit b (o + (p * t.stride)) q

let set_mixed t s p q = set_bit (buf t s) (base t s + t.pw + (p * t.stride)) q

let transpose_into t b src dst =
  let st = t.stride in
  zero b dst t.rw;
  for p = 0 to t.n - 1 do
    let w_row = src + (p * st) in
    for i = 0 to st - 1 do
      let w = ref (get b (w_row + i)) in
      while !w <> 0 do
        let q = (i * bits) + low_index !w in
        set_bit b (dst + (q * st)) p;
        w := !w land (!w - 1)
      done
    done
  done

let seal t s =
  let b = buf t s and po = base t s in
  let mo = po + t.pw in
  let pto = mo + t.rw in
  let mto = pto + t.rw in
  if t.functional then begin
    (* the preimage row of each state *)
    zero b pto t.rw;
    for p = 0 to t.n - 1 do
      let q = get b (po + p) in
      if q >= 0 then set_bit b (pto + (q * t.stride)) p
    done
  end
  else transpose_into t b po pto;
  transpose_into t b mo mto

let compose l a r b d c =
  if l.n <> d.n || r.n <> d.n || l.functional <> d.functional || r.functional <> d.functional then
    invalid_arg "Wordrel.compose: slabs of different shapes";
  let n = d.n and st = d.stride and pw = d.pw in
  let lb = buf l a and rb = buf r b and db = buf d c in
  let lpo = base l a and rpo = base r b and dpo = base d c in
  let lmo = lpo + pw and rmo = rpo + pw and dmo = dpo + pw in
  if d.functional then
    for p = 0 to n - 1 do
      let row = dmo + (p * st) in
      let m = get lb (lpo + p) in
      if m < 0 then begin
        set db (dpo + p) (-1);
        zero db row st
      end
      else begin
        (* Pure_A·Pure_B: follow the map twice *)
        set db (dpo + p) (get rb (rpo + m));
        (* Pure_A·Mixed_B: gather row m of Mixed_B *)
        let src = rmo + (m * st) in
        for i = 0 to st - 1 do
          set db (row + i) (get rb (src + i))
        done
      end;
      let lrow = lmo + (p * st) in
      for i = 0 to st - 1 do
        let w = ref (get lb (lrow + i)) in
        while !w <> 0 do
          let mid = (i * bits) + low_index !w in
          w := !w land (!w - 1);
          (* Mixed_A·Mixed_B: the one general product *)
          or_row db row rb (rmo + (mid * st)) st;
          (* Mixed_A·Pure_B: remap through the map *)
          let q = get rb (rpo + mid) in
          if q >= 0 then set_bit db row q
        done
      done
    done
  else
    for p = 0 to n - 1 do
      let prow = dpo + (p * st) and row = dmo + (p * st) in
      zero db prow st;
      zero db row st;
      (* Pure_A·Pure_B and Pure_A·Mixed_B, one pass over Pure_A's row *)
      let lrow = lpo + (p * st) in
      for i = 0 to st - 1 do
        let w = ref (get lb (lrow + i)) in
        while !w <> 0 do
          let mid = (i * bits) + low_index !w in
          w := !w land (!w - 1);
          or_row db prow rb (rpo + (mid * st)) st;
          or_row db row rb (rmo + (mid * st)) st
        done
      done;
      (* Mixed_A·(Pure_B ∪ Mixed_B) *)
      let lrow = lmo + (p * st) in
      for i = 0 to st - 1 do
        let w = ref (get lb (lrow + i)) in
        while !w <> 0 do
          let mid = (i * bits) + low_index !w in
          w := !w land (!w - 1);
          or_row db row rb (rpo + (mid * st)) st;
          or_row db row rb (rmo + (mid * st)) st
        done
      done
    done;
  seal d c

let pure_mem t s p q =
  let b = buf t s and o = base t s in
  if t.functional then get b (o + p) = q else test_bit b (o + (p * t.stride)) q

let mixed_mem t s p q = test_bit (buf t s) (base t s + t.pw + (p * t.stride)) q

(* Word [i] of pure row [p] of the block at [o] in [b]: on a functional
   slab, the one bit of the state [p] maps to, if it falls in that
   word. *)
let pure_word t b o p i =
  if t.functional then
    let q = get b (o + p) in
    if q >= 0 && q / bits = i then 1 lsl (q mod bits) else 0
  else get b (o + (p * t.stride) + i)

(* The state of the lowest set bit of word [i] of a row.  The scans
   below each spell out their own word loop, so no closure is built per
   scan. *)
let first_bit i w = (i * bits) + low_index w

let first_split l a p r b q from =
  if from >= l.n then -1
  else begin
    let st = l.stride and from = max from 0 in
    let lb = buf l a and lo = base l a and rb = buf r b in
    let ml = lo + l.pw + (p * st) in
    let pt = base r b + r.pw + r.rw + (q * st) in
    let mt = pt + r.rw in
    let rec go i mask =
      if i >= st then -1
      else
        let wd = get rb (mt + i) in
        let w =
          (get lb (ml + i) land (get rb (pt + i) lor wd)) lor (pure_word l lb lo p i land wd) land mask
        in
        if w <> 0 then first_bit i w else go (i + 1) (-1)
    in
    go (from / bits) (-1 lsl (from mod bits))
  end

type row = Bytes.t

let row ~states mem =
  let st = stride_of states in
  let r = words st in
  zero r 0 st;
  for q = 0 to states - 1 do
    if mem q then set_bit r 0 q
  done;
  r

let first_in_row t s p row from =
  if from >= t.n then -1
  else begin
    let st = t.stride and from = max from 0 in
    let b = buf t s and o = base t s in
    let m = o + t.pw + (p * st) in
    let rec go i mask =
      if i >= st then -1
      else
        let w = (pure_word t b o p i lor get b (m + i)) land get row i land mask in
        if w <> 0 then first_bit i w else go (i + 1) (-1)
    in
    go (from / bits) (-1 lsl (from mod bits))
  end
