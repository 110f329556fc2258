module Bitset = Spanner_util.Bitset
module Vec = Spanner_util.Vec

type state = int

type t = {
  n : int;
  initial : state;
  final_set : Bitset.t;
  trans : (Charset.t * state) list array;
  eps : state list array;
}

module Builder = struct
  type t = {
    mutable count : int;
    btrans : (Charset.t * state) list Vec.t;
    beps : state list Vec.t;
  }

  let create () = { count = 0; btrans = Vec.create (); beps = Vec.create () }

  let add_state b =
    ignore (Vec.push b.btrans []);
    ignore (Vec.push b.beps []);
    let q = b.count in
    b.count <- b.count + 1;
    q

  let add_eps b src dst = Vec.set b.beps src (dst :: Vec.get b.beps src)

  let add_chars b src cs dst =
    if not (Charset.is_empty cs) then Vec.set b.btrans src ((cs, dst) :: Vec.get b.btrans src)

  let add_char b src c dst = add_chars b src (Charset.singleton c) dst

  let finish b ~initial ~finals =
    let final_set = Bitset.create (max b.count 1) in
    List.iter (Bitset.add final_set) finals;
    {
      n = b.count;
      initial;
      final_set;
      trans = Vec.to_array b.btrans;
      eps = Vec.to_array b.beps;
    }
end

let size a = a.n

let initial a = a.initial

let finals a = Bitset.elements a.final_set

let is_final a q = Bitset.mem a.final_set q

let iter_transitions a q f = List.iter (fun (cs, dst) -> f cs dst) a.trans.(q)

let iter_eps a q f = List.iter f a.eps.(q)

(* ------------------------------------------------------------------ *)
(* Thompson construction                                               *)

let of_regex r =
  let b = Builder.create () in
  let entry, exit_ =
    Regex.fold
      (Regex.thompson
         ~state:(fun () -> Builder.add_state b)
         ~eps:(Builder.add_eps b) ~chars:(Builder.add_chars b) ())
      r ()
  in
  Builder.finish b ~initial:entry ~finals:[ exit_ ]

(* ------------------------------------------------------------------ *)
(* Language operations                                                 *)

(* [embed b a offset] copies all states and transitions of [a] into
   builder [b]; states of [a] map to [state + offset]. *)
let embed b a =
  let offset = Vec.length b.Builder.btrans in
  for _ = 1 to a.n do
    ignore (Builder.add_state b)
  done;
  for q = 0 to a.n - 1 do
    List.iter (fun (cs, dst) -> Builder.add_chars b (q + offset) cs (dst + offset)) a.trans.(q);
    List.iter (fun dst -> Builder.add_eps b (q + offset) (dst + offset)) a.eps.(q)
  done;
  offset

let union a c =
  let b = Builder.create () in
  let start = Builder.add_state b in
  let oa = embed b a and oc = embed b c in
  Builder.add_eps b start (a.initial + oa);
  Builder.add_eps b start (c.initial + oc);
  let finals =
    List.map (fun q -> q + oa) (finals a) @ List.map (fun q -> q + oc) (finals c)
  in
  Builder.finish b ~initial:start ~finals

let concat a c =
  let b = Builder.create () in
  let oa = embed b a and oc = embed b c in
  List.iter (fun q -> Builder.add_eps b (q + oa) (c.initial + oc)) (finals a);
  Builder.finish b ~initial:(a.initial + oa) ~finals:(List.map (fun q -> q + oc) (finals c))

let star a =
  let b = Builder.create () in
  let start = Builder.add_state b in
  let oa = embed b a in
  Builder.add_eps b start (a.initial + oa);
  List.iter (fun q -> Builder.add_eps b (q + oa) start) (finals a);
  Builder.finish b ~initial:start ~finals:[ start ]

let inter a c =
  let b = Builder.create () in
  let index = Hashtbl.create 64 in
  let pending = Queue.create () in
  let state_of (qa, qc) =
    match Hashtbl.find_opt index (qa, qc) with
    | Some q -> q
    | None ->
        let q = Builder.add_state b in
        Hashtbl.add index (qa, qc) q;
        Queue.add (qa, qc, q) pending;
        q
  in
  let start = state_of (a.initial, c.initial) in
  let finals = ref [] in
  while not (Queue.is_empty pending) do
    let qa, qc, q = Queue.take pending in
    if is_final a qa && is_final c qc then finals := q :: !finals;
    List.iter (fun dst -> Builder.add_eps b q (state_of (dst, qc))) a.eps.(qa);
    List.iter (fun dst -> Builder.add_eps b q (state_of (qa, dst))) c.eps.(qc);
    List.iter
      (fun (cs1, d1) ->
        List.iter
          (fun (cs2, d2) ->
            let cs = Charset.inter cs1 cs2 in
            if not (Charset.is_empty cs) then Builder.add_chars b q cs (state_of (d1, d2)))
          c.trans.(qc))
      a.trans.(qa)
  done;
  Builder.finish b ~initial:start ~finals:!finals

(* ------------------------------------------------------------------ *)
(* Decision procedures                                                 *)

let eps_closure a set = Bitset.close set (fun q visit -> List.iter visit a.eps.(q))

let has_final a set = Bitset.fold (fun q acc -> acc || is_final a q) set false

let step a set c =
  let next = Bitset.create a.n in
  Bitset.iter
    (fun q -> List.iter (fun (cs, dst) -> if Charset.mem cs c then Bitset.add next dst) a.trans.(q))
    set;
  eps_closure a next

let accepts a w =
  let final = String.fold_left (step a) (eps_closure a (Bitset.of_list a.n [ a.initial ])) w in
  has_final a final

let successors a q visit =
  List.iter (fun (_, dst) -> visit dst) a.trans.(q);
  List.iter visit a.eps.(q)

let reachable_from_initial a = Bitset.close (Bitset.of_list (max a.n 1) [ a.initial ]) (successors a)

let coreachable_to_final a = Bitset.close (Bitset.copy a.final_set) (Bitset.reverse a.n (successors a))

let is_empty_lang a = not (has_final a (reachable_from_initial a))

let shortest_word a =
  (* 0-1 BFS: ε-edges cost 0, labelled edges cost 1.  [how.(q)] records
     the breadcrumb used to reach [q] for word reconstruction. *)
  let dist = Array.make (max a.n 1) max_int in
  let how = Array.make (max a.n 1) None in
  let front = ref [ a.initial ] and back = ref [] in
  dist.(a.initial) <- 0;
  let result = ref None in
  let take () =
    match !front with
    | q :: rest ->
        front := rest;
        Some q
    | [] -> (
        match List.rev !back with
        | [] -> None
        | q :: rest ->
            front := rest;
            back := [];
            Some q)
  in
  let rec loop () =
    match take () with
    | None -> ()
    | Some q ->
        if is_final a q && !result = None then begin
          let buf = Buffer.create 8 in
          let rec walk q =
            match how.(q) with
            | None -> ()
            | Some (p, c) ->
                walk p;
                (match c with Some c -> Buffer.add_char buf c | None -> ())
          in
          walk q;
          result := Some (Buffer.contents buf)
        end;
        if !result = None then begin
          List.iter
            (fun dst ->
              if dist.(q) < dist.(dst) then begin
                dist.(dst) <- dist.(q);
                how.(dst) <- Some (q, None);
                front := dst :: !front
              end)
            a.eps.(q);
          List.iter
            (fun (cs, dst) ->
              if dist.(q) + 1 < dist.(dst) then
                match Charset.choose cs with
                | Some c ->
                    dist.(dst) <- dist.(q) + 1;
                    how.(dst) <- Some (q, Some c);
                    back := dst :: !back
                | None -> ())
            a.trans.(q);
          loop ()
        end
  in
  loop ();
  !result

let trim a =
  let useful = Bitset.inter (reachable_from_initial a) (coreachable_to_final a) in
  if not (Bitset.mem useful a.initial) then begin
    let b = Builder.create () in
    let q = Builder.add_state b in
    Builder.finish b ~initial:q ~finals:[]
  end
  else begin
    let b = Builder.create () in
    let remap = Array.make a.n (-1) in
    Bitset.iter (fun q -> remap.(q) <- Builder.add_state b) useful;
    Bitset.iter
      (fun q ->
        List.iter
          (fun (cs, dst) -> if remap.(dst) >= 0 then Builder.add_chars b remap.(q) cs remap.(dst))
          a.trans.(q);
        List.iter
          (fun dst -> if remap.(dst) >= 0 then Builder.add_eps b remap.(q) remap.(dst))
          a.eps.(q))
      useful;
    let finals =
      Bitset.fold (fun q acc -> if is_final a q then remap.(q) :: acc else acc) useful []
    in
    Builder.finish b ~initial:remap.(a.initial) ~finals
  end

(* Containment L(c) ⊆ L(a) by simulating c against the determinized
   subsets of a, on the fly.  A violation is a reachable pair (qc, S)
   with qc accepting in c and S containing no accepting state of a. *)
let contains a c =
  let seen = Bitset.Tbl.create 64 in
  let visited (qc, set) = Bitset.seen_pair seen ~capacity:c.n qc set in
  let start = eps_closure a (Bitset.of_list a.n [ a.initial ]) in
  let start_c = Bitset.of_list c.n [ c.initial ] in
  let _ = eps_closure c start_c in
  let ok = ref true in
  let pending = Queue.create () in
  Bitset.iter (fun qc -> if not (visited (qc, start)) then Queue.add (qc, start) pending) start_c;
  while !ok && not (Queue.is_empty pending) do
    let qc, set = Queue.take pending in
    if is_final c qc && not (has_final a set) then ok := false
    else
      List.iter
        (fun (cs, dst) ->
          (* Different characters of [cs] may drive [a] to different
             subsets, so step per character. *)
          Charset.iter
            (fun ch ->
              let next = step a set ch in
              let dst_closure = Bitset.of_list c.n [ dst ] in
              let _ = eps_closure c dst_closure in
              Bitset.iter
                (fun qc' -> if not (visited (qc', next)) then Queue.add (qc', next) pending)
                dst_closure)
            cs)
        c.trans.(qc)
  done;
  !ok

let equal_lang a b = contains a b && contains b a
