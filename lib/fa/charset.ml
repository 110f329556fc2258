(* A charset is 8 words of 32 bits each (OCaml native ints hold 63
   bits, so 64-bit packing would silently lose bit 63): membership of
   byte [c] is bit [c land 31] of word [c lsr 5].  The backing array is
   never mutated after construction — all operations copy. *)

type t = int array

let num_words = 8

let empty = Array.make num_words 0

let full = Array.make num_words 0xFFFFFFFF

let mem cs c =
  let code = Char.code c in
  cs.(code lsr 5) land (1 lsl (code land 31)) <> 0

let add cs c =
  let code = Char.code c in
  let copy = Array.copy cs in
  copy.(code lsr 5) <- copy.(code lsr 5) lor (1 lsl (code land 31));
  copy

let singleton c = add empty c

let of_string s = String.fold_left add empty s

let range lo hi =
  let cs = Array.make num_words 0 in
  for code = Char.code lo to Char.code hi do
    cs.(code lsr 5) <- cs.(code lsr 5) lor (1 lsl (code land 31))
  done;
  cs

let map2 f a b = Array.init num_words (fun i -> f a.(i) b.(i))

let union a b = map2 ( lor ) a b

let inter a b = map2 ( land ) a b

let diff a b = map2 (fun x y -> x land lnot y) a b

let complement cs = diff full cs

let is_empty cs = Array.for_all (fun w -> w = 0) cs

let cardinal cs =
  let count w =
    let rec loop w acc = if w = 0 then acc else loop (w land (w - 1)) (acc + 1) in
    loop w 0
  in
  Array.fold_left (fun acc w -> acc + count w) 0 cs

let iter f cs =
  for word = 0 to num_words - 1 do
    if cs.(word) <> 0 then
      for bit = 0 to 31 do
        if cs.(word) land (1 lsl bit) <> 0 then f (Char.chr ((word lsl 5) lor bit))
      done
  done

let elements cs =
  let acc = ref [] in
  iter (fun c -> acc := c :: !acc) cs;
  List.rev !acc

let choose cs =
  let result = ref None in
  (try
     iter
       (fun c ->
         result := Some c;
         raise Exit)
       cs
   with Exit -> ());
  !result

let equal a b = Array.for_all2 ( = ) a b

(* Successive refinement: one pass per distinct charset, splitting
   every class that the charset cuts (members get a fresh class id,
   non-members keep the old one).  O(256) per distinct charset; a
   repeat, the empty set and the full set cut nothing, so they are
   skipped (an automaton repeats its few charsets on many arcs). *)
let byte_classes sets =
  let class_of = Array.make 256 0 in
  let count = ref 1 in
  let seen = Hashtbl.create 16 in
  let may_cut cs =
    (not (Hashtbl.mem seen cs || is_empty cs || equal cs full))
    && (Hashtbl.add seen cs ();
        true)
  in
  List.iter
    (fun cs ->
      let members = Array.make !count 0 and totals = Array.make !count 0 in
      Array.iteri
        (fun code c ->
          totals.(c) <- totals.(c) + 1;
          if mem cs (Char.chr code) then members.(c) <- members.(c) + 1)
        class_of;
      let fresh = Array.make (Array.length members) (-1) in
      Array.iteri
        (fun c m ->
          if m > 0 && m < totals.(c) then begin
            fresh.(c) <- !count;
            incr count
          end)
        members;
      Array.iteri
        (fun code c ->
          if fresh.(c) >= 0 && mem cs (Char.chr code) then class_of.(code) <- fresh.(c))
        class_of)
    (List.filter may_cut sets);
  (class_of, !count)

let pp ppf cs =
  if equal cs full then Format.pp_print_string ppf "."
  else
    match elements cs with
    | [ c ] -> Format.fprintf ppf "%c" c
    | chars ->
        (* Render maximal runs as ranges. *)
        let buf = Buffer.create 16 in
        (* the bytes the class grammar gives a meaning: a bare one would
           close the class, escape, negate or form a range on re-parse *)
        let add c =
          if String.contains "\\]^-" c then Buffer.add_char buf '\\';
          Buffer.add_char buf c
        in
        let rec runs = function
          | [] -> ()
          | c :: rest ->
              let rec extend last = function
                | d :: rest' when Char.code d = Char.code last + 1 -> extend d rest'
                | rest' -> (last, rest')
              in
              let last, rest' = extend c rest in
              if c = last then add c
              else if Char.code last = Char.code c + 1 then (
                add c;
                add last)
              else (
                add c;
                Buffer.add_char buf '-';
                add last);
              runs rest'
        in
        runs chars;
        Format.fprintf ppf "[%s]" (Buffer.contents buf)
