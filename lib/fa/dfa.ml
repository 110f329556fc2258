module Bitset = Spanner_util.Bitset
module Vec = Spanner_util.Vec

type state = int

(* [trans] is a flat [size * 256] table: the successor of state [q] on
   character [c] is [trans.(q * 256 + Char.code c)].  DFAs here are
   always total, so every entry is a valid state. *)
type t = { size : int; initial : state; finals : Bitset.t; trans : int array }

let size d = d.size

let initial d = d.initial

let is_final d q = Bitset.mem d.finals q

let step d q c = d.trans.((q * 256) + Char.code c)

let accepts d w =
  let q = ref d.initial in
  String.iter (fun c -> q := step d !q c) w;
  is_final d !q

let of_nfa nfa =
  let n = Nfa.size nfa in
  let start = Nfa.eps_closure nfa (Bitset.of_list (max n 1) [ Nfa.initial nfa ]) in
  let index = Bitset.Tbl.create 64 in
  let subsets = Vec.create () in
  let pending = Queue.create () in
  let state_of set =
    match Bitset.Tbl.find_opt index set with
    | Some q -> q
    | None ->
        let q = Vec.push subsets set in
        Bitset.Tbl.add index set q;
        Queue.add q pending;
        q
  in
  let q0 = state_of start in
  let rows = Vec.create () in
  while not (Queue.is_empty pending) do
    let q = Queue.take pending in
    let set = Vec.get subsets q in
    (* For each character, the successor subset. Group characters by
       iterating the 256 bytes once; per byte we scan the outgoing
       transitions of the member states. *)
    let row = Array.make 256 (-1) in
    for code = 0 to 255 do
      let next = Nfa.step nfa set (Char.chr code) in
      if not (Bitset.is_empty next) then row.(code) <- state_of next
    done;
    (* Vec.push appends at index [q] because subsets are processed in
       allocation order... not guaranteed once the queue interleaves, so
       store rows keyed by state. *)
    while Vec.length rows <= q do
      ignore (Vec.push rows [||])
    done;
    Vec.set rows q row
  done;
  let count = Vec.length subsets in
  (* Totalise: route missing transitions to a sink. *)
  let needs_sink =
    let found = ref false in
    Vec.iter (fun row -> if Array.exists (fun x -> x < 0) row then found := true) rows;
    !found
  in
  let total = if needs_sink then count + 1 else count in
  let sink = count in
  let trans = Array.make (total * 256) sink in
  Vec.iteri
    (fun q row ->
      Array.iteri (fun code dst -> trans.((q * 256) + code) <- (if dst < 0 then sink else dst)) row)
    rows;
  if needs_sink then
    for code = 0 to 255 do
      trans.((sink * 256) + code) <- sink
    done;
  let finals = Bitset.create total in
  Vec.iteri
    (fun q set ->
      if Bitset.fold (fun s acc -> acc || Nfa.is_final nfa s) set false then Bitset.add finals q)
    subsets;
  { size = total; initial = q0; finals; trans }

let of_regex r = of_nfa (Nfa.of_regex r)

let complement d =
  let finals = Bitset.create d.size in
  for q = 0 to d.size - 1 do
    if not (Bitset.mem d.finals q) then Bitset.add finals q
  done;
  { d with finals }

let product keep a b =
  let index = Hashtbl.create 64 in
  let pending = Queue.create () in
  let pairs = Vec.create () in
  let state_of p =
    match Hashtbl.find_opt index p with
    | Some q -> q
    | None ->
        let q = Vec.push pairs p in
        Hashtbl.add index p q;
        Queue.add (p, q) pending;
        q
  in
  let q0 = state_of (a.initial, b.initial) in
  let rows = Vec.create () in
  while not (Queue.is_empty pending) do
    let (qa, qb), q = Queue.take pending in
    let row = Array.init 256 (fun code ->
        state_of (a.trans.((qa * 256) + code), b.trans.((qb * 256) + code)))
    in
    while Vec.length rows <= q do
      ignore (Vec.push rows [||])
    done;
    Vec.set rows q row
  done;
  let count = Vec.length pairs in
  let trans = Array.make (count * 256) 0 in
  Vec.iteri (fun q row -> Array.iteri (fun code dst -> trans.((q * 256) + code) <- dst) row) rows;
  let finals = Bitset.create count in
  Vec.iteri
    (fun q (qa, qb) ->
      if keep (Bitset.mem a.finals qa) (Bitset.mem b.finals qb) then Bitset.add finals q)
    pairs;
  { size = count; initial = q0; finals; trans }

let inter a b = product ( && ) a b

let diff a b = product (fun x y -> x && not y) a b

let is_empty_lang d = Bitset.is_empty d.finals

let shortest_word d =
  let dist = Array.make d.size (-1) in
  let parent = Array.make d.size None in
  let q = Queue.create () in
  dist.(d.initial) <- 0;
  Queue.add d.initial q;
  let goal = ref None in
  while !goal = None && not (Queue.is_empty q) do
    let s = Queue.take q in
    if is_final d s then goal := Some s
    else
      for code = 0 to 255 do
        let t = d.trans.((s * 256) + code) in
        if dist.(t) < 0 then begin
          dist.(t) <- dist.(s) + 1;
          parent.(t) <- Some (s, Char.chr code);
          Queue.add t q
        end
      done
  done;
  match !goal with
  | None -> None
  | Some s ->
      let buf = Buffer.create 8 in
      let rec walk s =
        match parent.(s) with
        | None -> ()
        | Some (p, c) ->
            walk p;
            Buffer.add_char buf c
      in
      walk s;
      Some (Buffer.contents buf)

let minimize d =
  (* Moore partition refinement.  Start from {finals, nonfinals} and
     split classes until the transition profile is constant per class. *)
  let cls = Array.make d.size 0 in
  for q = 0 to d.size - 1 do
    cls.(q) <- (if Bitset.mem d.finals q then 1 else 0)
  done;
  let changed = ref true in
  let ncls = ref 2 in
  while !changed do
    changed := false;
    let profile = Hashtbl.create d.size in
    let next_cls = Array.make d.size 0 in
    let fresh = ref 0 in
    for q = 0 to d.size - 1 do
      let key =
        (cls.(q), Array.init 256 (fun code -> cls.(d.trans.((q * 256) + code))))
      in
      match Hashtbl.find_opt profile key with
      | Some c -> next_cls.(q) <- c
      | None ->
          Hashtbl.add profile key !fresh;
          next_cls.(q) <- !fresh;
          incr fresh
    done;
    if !fresh <> !ncls then changed := true;
    ncls := !fresh;
    Array.blit next_cls 0 cls 0 d.size
  done;
  let count = !ncls in
  let trans = Array.make (count * 256) 0 in
  let finals = Bitset.create count in
  for q = 0 to d.size - 1 do
    let c = cls.(q) in
    for code = 0 to 255 do
      trans.((c * 256) + code) <- cls.(d.trans.((q * 256) + code))
    done;
    if Bitset.mem d.finals q then Bitset.add finals c
  done;
  { size = count; initial = cls.(d.initial); finals; trans }

let contains a b = is_empty_lang (diff b a)

let equal_lang a b = contains a b && contains b a

let to_nfa d =
  let b = Nfa.Builder.create () in
  for _ = 1 to d.size do
    ignore (Nfa.Builder.add_state b)
  done;
  for q = 0 to d.size - 1 do
    (* Group consecutive characters with the same successor into one
       charset edge. *)
    let by_dst = Hashtbl.create 8 in
    for code = 0 to 255 do
      let dst = d.trans.((q * 256) + code) in
      let cs = Option.value ~default:Charset.empty (Hashtbl.find_opt by_dst dst) in
      Hashtbl.replace by_dst dst (Charset.add cs (Char.chr code))
    done;
    Hashtbl.iter (fun dst cs -> Nfa.Builder.add_chars b q cs dst) by_dst
  done;
  Nfa.Builder.finish b ~initial:d.initial ~finals:(Bitset.elements d.finals)
