module Charset = Spanner_fa.Charset
module Bitset = Spanner_util.Bitset
module Vec = Spanner_util.Vec
module Limits = Spanner_util.Limits

type state = int

type t = {
  n : int;
  initial : state;
  final_set : Bitset.t;
  set_arcs : (Marker.Set.t * state) list array;
  letter_arcs : (Charset.t * state) list array;
  vars : Variable.Set.t;
}

let size e = e.n

let initial e = e.initial

let is_final e q = Bitset.mem e.final_set q

let has_final e set = Bitset.fold (fun q acc -> acc || is_final e q) set false

let vars e = e.vars

let iter_set_arcs e q f = List.iter (fun (s, dst) -> f s dst) e.set_arcs.(q)

let iter_letter_arcs e q f = List.iter (fun (cs, dst) -> f cs dst) e.letter_arcs.(q)

(* ------------------------------------------------------------------ *)
(* Conversion from vset-automata                                       *)

module Closure_key = struct
  type t = int * Marker.Set.t

  let compare (q, s) (q', s') =
    let c = Int.compare q q' in
    if c <> 0 then c else Marker.Set.compare s s'
end

module Closure_set = Set.Make (Closure_key)

(* All (q', S) such that q' is reachable from q along ε/marker arcs
   whose collected markers are exactly S (each marker at most once on
   the path).  The closure is worst-case exponential in the number of
   variables, so every element charged against the gauge — a
   pathological formula trips the fuel budget instead of exhausting
   memory. *)
let marker_closure g (v : Vset.t) q =
  let seen = ref (Closure_set.singleton (q, Marker.Set.empty)) in
  let queue = Queue.create () in
  Queue.add (q, Marker.Set.empty) queue;
  while not (Queue.is_empty queue) do
    let p, s = Queue.take queue in
    Vset.iter_transitions v p (fun label dst ->
        Limits.check g;
        let next =
          match label with
          | Vset.Eps -> Some (dst, s)
          | Vset.Mark m when not (Marker.Set.mem m s) -> Some (dst, Marker.Set.add m s)
          | Vset.Mark _ | Vset.Chars _ -> None
        in
        match next with
        | Some key when not (Closure_set.mem key !seen) ->
            seen := Closure_set.add key !seen;
            Queue.add key queue
        | Some _ | None -> ())
  done;
  Closure_set.elements !seen

let of_vset ?(limits = Limits.none) v =
  let g = Limits.start limits in
  let n = Vset.size v in
  Limits.check_states g n;
  let set_arcs = Array.make (max n 1) [] in
  let letter_arcs = Array.make (max n 1) [] in
  let final_set = Bitset.create (max n 1) in
  let raw_letters q =
    let acc = ref [] in
    Vset.iter_transitions v q (fun label dst ->
        match label with
        | Vset.Chars cs -> acc := (cs, dst) :: !acc
        | Vset.Eps | Vset.Mark _ -> ());
    !acc
  in
  for q = 0 to n - 1 do
    let closure = marker_closure g v q in
    List.iter
      (fun (q', s) ->
        Limits.check g;
        if Marker.Set.is_empty s then begin
          (* ε-only closure: absorb into letter arcs and finals. *)
          List.iter (fun arc -> letter_arcs.(q) <- arc :: letter_arcs.(q)) (raw_letters q');
          if Vset.is_final v q' then Bitset.add final_set q
        end
        else set_arcs.(q) <- (s, q') :: set_arcs.(q))
      closure;
    (* Distinct ε-paths to the same raw arc would duplicate it; arcs
       are sets (duplicates would corrupt run counting in the weighted
       semantics and waste work everywhere else). *)
    letter_arcs.(q) <-
      List.sort_uniq
        (fun (cs1, d1) (cs2, d2) ->
          let c = Int.compare d1 d2 in
          if c <> 0 then c else compare (Charset.elements cs1) (Charset.elements cs2))
        letter_arcs.(q);
    set_arcs.(q) <-
      List.sort_uniq
        (fun (s1, d1) (s2, d2) ->
          let c = Int.compare d1 d2 in
          if c <> 0 then c else Marker.Set.compare s1 s2)
        set_arcs.(q)
  done;
  (* Set-arc targets must in turn absorb their ε-closure for letters and
     finals — already ensured because every state got the treatment. *)
  { n = max n 1; initial = Vset.initial v; final_set; set_arcs; letter_arcs; vars = Vset.vars v }

let of_formula ?limits f = of_vset ?limits (Vset.of_formula f)

(* ------------------------------------------------------------------ *)
(* Interned form and determinization                                   *)

type interned = {
  states : int;
  start : int;
  accepting : bool array;
  labels : Marker.Set.t array;
  nclasses : int;
  class_of : int array;
  set_rows : (int * int) list array;
  cells : int list array;
}

module Label_map = Map.Make (Marker.Set)

(* The smallest byte of each class represents it: a class is in a
   charset iff its representative is. *)
let representatives class_of nclasses =
  let rep = Array.make nclasses 0 in
  for code = 255 downto 0 do
    rep.(class_of.(code)) <- code
  done;
  rep

let intern g e =
  (* Byte classes: bytes the spanner's charsets never separate share a
     column of the transition table. *)
  let charsets = ref [] in
  Array.iter (List.iter (fun (cs, _) -> charsets := cs :: !charsets)) e.letter_arcs;
  let class_of, nclasses = Charset.byte_classes !charsets in
  Limits.charge g (e.n * nclasses);
  let rep = representatives class_of nclasses in
  (* Marker-set alphabet, numbered in first-seen order. *)
  let label_map = ref Label_map.empty in
  let label_vec = Vec.create () in
  let label_of s =
    match Label_map.find_opt s !label_map with
    | Some i -> i
    | None ->
        let i = Vec.push label_vec s in
        label_map := Label_map.add s i !label_map;
        i
  in
  (* Set arcs in arc order (enumeration order depends on it). *)
  let set_rows = Array.map (List.map (fun (s, dst) -> (label_of s, dst))) e.set_arcs in
  let cells = Array.make (e.n * nclasses) [] in
  Array.iteri
    (fun q arcs ->
      List.iter
        (fun (cs, dst) ->
          for c = 0 to nclasses - 1 do
            if Charset.mem cs (Char.unsafe_chr rep.(c)) then
              cells.((q * nclasses) + c) <- dst :: cells.((q * nclasses) + c)
          done)
        arcs)
    e.letter_arcs;
  {
    states = e.n;
    start = e.initial;
    accepting = Array.init e.n (is_final e);
    labels = Vec.to_array label_vec;
    nclasses;
    class_of;
    set_rows;
    cells = Array.map (List.sort_uniq Int.compare) cells;
  }

(* ------------------------------------------------------------------ *)
(* The subset table                                                    *)

(* Subsets of an interned automaton's states, numbered in the order
   they are met.  Three facts about each are computed once: whether it
   accepts (when it is admitted), its set arcs grouped by label (on the
   first [set_row]) and its successor under a byte class (on the first
   [step] with that class).  [admit k] runs before the [k]-th subset is
   added.  Compile-time determinisation expands the table breadth-first;
   [Compiled.prepare] reads it along a document. *)
type subsets = {
  over : interned;
  admit : int -> unit;
  index : int Bitset.Tbl.t;
  sets : Bitset.t Vec.t;
  accepts : bool Vec.t;
  rows : int array option Vec.t;
  mutable succ : int array; (* subset × class -> successor, -1 none, [unknown] *)
  label_stamp : int array; (* label -> the subset whose row last grouped it *)
  label_tgt : Bitset.t array; (* label -> its targets from that subset *)
  image : Bitset.t;
}

let unknown = -2

let intern_subset t set =
  match Bitset.Tbl.find_opt t.index set with
  | Some d -> d
  | None ->
      t.admit (Vec.length t.sets + 1);
      let set = Bitset.copy set in
      let d = Vec.push t.sets set in
      Bitset.Tbl.add t.index set d;
      ignore (Vec.push t.accepts (Bitset.fold (fun q acc -> acc || t.over.accepting.(q)) set false));
      ignore (Vec.push t.rows None);
      let nclasses = t.over.nclasses in
      if (d + 1) * nclasses > Array.length t.succ then begin
        let succ = Array.make (2 * (d + 1) * nclasses) unknown in
        Array.blit t.succ 0 succ 0 (d * nclasses);
        t.succ <- succ
      end;
      d

let make_subsets ~admit a =
  let nlabels = max 1 (Array.length a.labels) in
  let t =
    {
      over = a;
      admit;
      index = Bitset.Tbl.create 64;
      sets = Vec.create ();
      accepts = Vec.create ();
      rows = Vec.create ();
      succ = Array.make (max 1 a.states * a.nclasses) unknown;
      label_stamp = Array.make nlabels (-1);
      label_tgt = Array.init nlabels (fun _ -> Bitset.create a.states);
      image = Bitset.create a.states;
    }
  in
  let start = Bitset.create a.states in
  Bitset.add start a.start;
  ignore (intern_subset t start);
  t

let subsets a = make_subsets ~admit:ignore a
let accepts t d = Vec.get t.accepts d

(* Labels in first-discovery order: states ascending, each state's set
   arcs in arc order; targets are interned in that order too. *)
let set_row t d =
  match Vec.get t.rows d with
  | Some row -> row
  | None ->
      let found = ref [] in
      Bitset.iter
        (fun q ->
          List.iter
            (fun (lbl, dst) ->
              if t.label_stamp.(lbl) <> d then begin
                t.label_stamp.(lbl) <- d;
                Bitset.clear t.label_tgt.(lbl);
                found := lbl :: !found
              end;
              Bitset.add t.label_tgt.(lbl) dst)
            t.over.set_rows.(q))
        (Vec.get t.sets d);
      let row = Array.make (2 * List.length !found) 0 in
      List.iteri
        (fun i lbl ->
          row.(2 * i) <- lbl;
          row.((2 * i) + 1) <- intern_subset t t.label_tgt.(lbl))
        (List.rev !found);
      Vec.set t.rows d (Some row);
      row

let step t d cls =
  let a = t.over in
  let cell = (d * a.nclasses) + cls in
  let s = t.succ.(cell) in
  if s <> unknown then s
  else begin
    Bitset.clear t.image;
    Bitset.iter
      (fun q -> List.iter (Bitset.add t.image) a.cells.((q * a.nclasses) + cls))
      (Vec.get t.sets d);
    let s = if Bitset.is_empty t.image then -1 else intern_subset t t.image in
    (* interning may have grown [t.succ] *)
    t.succ.(cell) <- s;
    s
  end

exception Cap

(* Subsets are expanded in the order they were numbered: first a
   subset's set-arc targets (labels in first-discovery order), then its
   letter targets by class in byte order.  The new automaton's rows are
   the table's, the same rows [Compiled.prepare] reads off a table over
   [a] — so the product DAG, and with it the enumeration order, is the
   same on both. *)
let determinize_interned g ~cap a =
  let nclasses = a.nclasses in
  let rep = representatives a.class_of nclasses in
  let by_byte = Array.init nclasses Fun.id in
  Array.sort (fun c c' -> Int.compare rep.(c) rep.(c')) by_byte;
  let admit k =
    if k > cap then raise Cap;
    (* exponential in |a| in the worst case, so the request's state cap
       applies per subset *)
    Limits.check_states g k
  in
  let expand () =
    let t = make_subsets ~admit a in
    let d = ref 0 in
    while !d < Vec.length t.sets do
      Bitset.iter (fun _ -> Limits.charge g nclasses) (Vec.get t.sets !d);
      ignore (set_row t !d);
      Array.iter (fun c -> ignore (step t !d c)) by_byte;
      incr d
    done;
    t
  in
  match expand () with
  | exception Cap -> None
  | t ->
      let states = Vec.length t.sets in
      Some
        {
          a with
          states;
          start = 0;
          accepting = Vec.to_array t.accepts;
          set_rows =
            Array.init states (fun d ->
                let row = set_row t d in
                List.init (Array.length row / 2) (fun i -> (row.(2 * i), row.((2 * i) + 1))));
          cells =
            Array.init (states * nclasses) (fun cell ->
                match t.succ.(cell) with -1 -> [] | s -> [ s ]);
        }

(* Back from ids to labels: a state's letter arcs are its classes
   grouped by target, one charset per target. *)
let of_interned vars a =
  let class_cs = Array.make a.nclasses Charset.empty in
  Array.iteri (fun code c -> class_cs.(c) <- Charset.add class_cs.(c) (Char.chr code)) a.class_of;
  let letter_arcs =
    Array.init a.states (fun q ->
        let by_dst = Hashtbl.create 8 in
        for c = 0 to a.nclasses - 1 do
          List.iter
            (fun dst ->
              let cs = Option.value (Hashtbl.find_opt by_dst dst) ~default:Charset.empty in
              Hashtbl.replace by_dst dst (Charset.union cs class_cs.(c)))
            a.cells.((q * a.nclasses) + c)
        done;
        List.sort
          (fun (_, d) (_, d') -> Int.compare d d')
          (Hashtbl.fold (fun dst cs acc -> (cs, dst) :: acc) by_dst []))
  in
  let final_set = Bitset.create a.states in
  Array.iteri (fun q acc -> if acc then Bitset.add final_set q) a.accepting;
  {
    n = a.states;
    initial = a.start;
    final_set;
    set_arcs = Array.map (List.map (fun (lbl, dst) -> (a.labels.(lbl), dst))) a.set_rows;
    letter_arcs;
    vars;
  }

let determinize ?(limits = Limits.none) e =
  let g = Limits.start limits in
  of_interned e.vars (Option.get (determinize_interned g ~cap:max_int (intern g e)))

let is_deterministic e =
  let ok = ref true in
  for q = 0 to e.n - 1 do
    (* distinct set labels *)
    let rec labels_unique = function
      | [] -> true
      | (s, _) :: rest ->
          (not (List.exists (fun (s', _) -> Marker.Set.equal s s') rest)) && labels_unique rest
    in
    if not (labels_unique e.set_arcs.(q)) then ok := false;
    (* per-character determinism *)
    let seen = Array.make 256 false in
    List.iter
      (fun (cs, _) ->
        Charset.iter
          (fun c ->
            if seen.(Char.code c) then ok := false;
            seen.(Char.code c) <- true)
          cs)
      e.letter_arcs.(q)
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Algebra                                                             *)

let union a b =
  let n = 1 + a.n + b.n in
  let oa = 1 and ob = 1 + a.n in
  let set_arcs = Array.make n [] in
  let letter_arcs = Array.make n [] in
  let final_set = Bitset.create n in
  let copy off (src : t) =
    for q = 0 to src.n - 1 do
      set_arcs.(q + off) <- List.map (fun (s, d) -> (s, d + off)) src.set_arcs.(q);
      letter_arcs.(q + off) <- List.map (fun (cs, d) -> (cs, d + off)) src.letter_arcs.(q)
    done;
    Bitset.iter (fun q -> Bitset.add final_set (q + off)) src.final_set
  in
  copy oa a;
  copy ob b;
  set_arcs.(0) <- set_arcs.(a.initial + oa) @ set_arcs.(b.initial + ob);
  letter_arcs.(0) <- letter_arcs.(a.initial + oa) @ letter_arcs.(b.initial + ob);
  if Bitset.mem final_set (a.initial + oa) || Bitset.mem final_set (b.initial + ob) then
    Bitset.add final_set 0;
  { n; initial = 0; final_set; set_arcs; letter_arcs; vars = Variable.Set.union a.vars b.vars }

let project keep e =
  let keep = Variable.Set.inter keep e.vars in
  let visible s =
    Marker.Set.filter (fun m -> Variable.Set.mem (Marker.variable m) keep) s
  in
  let set_arcs = Array.make e.n [] in
  let letter_arcs = Array.map (fun arcs -> arcs) e.letter_arcs in
  let final_set = Bitset.copy e.final_set in
  for q = 0 to e.n - 1 do
    List.iter
      (fun (s, dst) ->
        let s' = visible s in
        if Marker.Set.is_empty s' then begin
          (* The arc became invisible: compose with the letter arcs and
             finality of its target (one set arc per boundary, so no
             further set-arc composition can follow). *)
          letter_arcs.(q) <- e.letter_arcs.(dst) @ letter_arcs.(q);
          if Bitset.mem e.final_set dst then Bitset.add final_set q
        end
        else set_arcs.(q) <- (s', dst) :: set_arcs.(q))
      e.set_arcs.(q)
  done;
  { e with set_arcs; letter_arcs; final_set; vars = keep }

(* Is a final state reachable along letter arcs and the set arcs whose
   label passes [through]? *)
let reaches_final e ~through =
  has_final e
    (Bitset.close (Bitset.of_list e.n [ e.initial ]) (fun q visit ->
         List.iter (fun (s, dst) -> if through s then visit dst) e.set_arcs.(q);
         List.iter (fun (_, dst) -> visit dst) e.letter_arcs.(q)))

(* Does some accepting run avoid every marker of [x]?  (Under the
   schemaless semantics of [27], such a run leaves [x] unbound.) *)
let possibly_unbound e x =
  reaches_final e ~through:(Marker.Set.for_all (fun m -> not (Variable.equal (Marker.variable m) x)))

(* One product in which the runs of [a] avoid all markers of [avoid_a],
   the runs of [b] avoid [avoid_b], and boundary sets agree exactly on
   the markers of [sync]. *)
let join_product a b ~avoid_a ~avoid_b ~sync =
  let sync_part s = Marker.Set.filter (fun m -> Variable.Set.mem (Marker.variable m) sync) s in
  let avoids avoid s =
    Marker.Set.exists (fun m -> Variable.Set.mem (Marker.variable m) avoid) s
  in
  let set_arcs_a q = List.filter (fun (s, _) -> not (avoids avoid_a s)) a.set_arcs.(q) in
  let set_arcs_b q = List.filter (fun (s, _) -> not (avoids avoid_b s)) b.set_arcs.(q) in
  let index = Hashtbl.create 64 in
  let pending = Queue.create () in
  let states = Vec.create () in
  let state_of p =
    match Hashtbl.find_opt index p with
    | Some q -> q
    | None ->
        let q = Vec.push states p in
        Hashtbl.add index p q;
        Queue.add (p, q) pending;
        q
  in
  let set_arcs = Vec.create () and letter_arcs = Vec.create () and finals = Vec.create () in
  let ensure q =
    while Vec.length set_arcs <= q do
      ignore (Vec.push set_arcs []);
      ignore (Vec.push letter_arcs []);
      ignore (Vec.push finals false)
    done
  in
  let q0 = state_of (a.initial, b.initial) in
  while not (Queue.is_empty pending) do
    let (qa, qb), q = Queue.take pending in
    ensure q;
    if is_final a qa && is_final b qb then Vec.set finals q true;
    (* Letter arcs: synchronised. *)
    List.iter
      (fun (csa, da) ->
        List.iter
          (fun (csb, db) ->
            let cs = Charset.inter csa csb in
            if not (Charset.is_empty cs) then
              Vec.set letter_arcs q ((cs, state_of (da, db)) :: Vec.get letter_arcs q))
          b.letter_arcs.(qb))
      a.letter_arcs.(qa);
    (* Boundary arcs: both sides take one, or one side takes one whose
       synchronised part is empty. *)
    let add_set s dst = Vec.set set_arcs q ((s, dst) :: Vec.get set_arcs q) in
    List.iter
      (fun (sa, da) ->
        if Marker.Set.is_empty (sync_part sa) then add_set sa (state_of (da, qb)))
      (set_arcs_a qa);
    List.iter
      (fun (sb, db) ->
        if Marker.Set.is_empty (sync_part sb) then add_set sb (state_of (qa, db)))
      (set_arcs_b qb);
    List.iter
      (fun (sa, da) ->
        List.iter
          (fun (sb, db) ->
            if Marker.Set.equal (sync_part sa) (sync_part sb) then
              add_set (Marker.Set.union sa sb) (state_of (da, db)))
          (set_arcs_b qb))
      (set_arcs_a qa)
  done;
  let n = Vec.length states in
  ensure (n - 1);
  let final_set = Bitset.create (max n 1) in
  Vec.iteri (fun q f -> if f then Bitset.add final_set q) finals;
  {
    n = max n 1;
    initial = q0;
    final_set;
    set_arcs = Vec.to_array set_arcs;
    letter_arcs = Vec.to_array letter_arcs;
    vars = Variable.Set.union a.vars b.vars;
  }

let join a b =
  (* Under the schemaless semantics an unbound shared variable joins
     with anything, so the product is taken once per guess of which
     shared variables each side leaves unbound (only variables that
     *can* be unbound are guessed), and the branches are unioned. *)
  let shared = Variable.Set.inter a.vars b.vars in
  let opt_a = List.filter (possibly_unbound a) (Variable.Set.elements shared) in
  let opt_b = List.filter (possibly_unbound b) (Variable.Set.elements shared) in
  let rec subsets = function
    | [] -> [ Variable.Set.empty ]
    | x :: rest ->
        let ss = subsets rest in
        ss @ List.map (Variable.Set.add x) ss
  in
  let products =
    List.concat_map
      (fun u1 ->
        List.map
          (fun u2 ->
            let sync = Variable.Set.diff shared (Variable.Set.union u1 u2) in
            join_product a b ~avoid_a:u1 ~avoid_b:u2 ~sync)
          (subsets opt_b))
      (subsets opt_a)
  in
  match products with
  | [] -> assert false (* subsets is never empty *)
  | p :: rest -> List.fold_left union p rest

let join_branches a b =
  let shared = Variable.Set.inter a.vars b.vars in
  let optional e =
    List.length (List.filter (possibly_unbound e) (Variable.Set.elements shared))
  in
  let bits = optional a + optional b in
  if bits >= Sys.int_size - 2 then max_int else 1 lsl bits

let rename_vars f e =
  let mapped = Variable.Set.map f e.vars in
  if Variable.Set.cardinal mapped <> Variable.Set.cardinal e.vars then
    invalid_arg "Evset.rename_vars: renaming is not injective on the automaton's variables";
  let rename_marker = function
    | Marker.Open x -> Marker.Open (f x)
    | Marker.Close x -> Marker.Close (f x)
  in
  let set_arcs =
    Array.map
      (List.map (fun (s, dst) -> (Marker.Set.map rename_marker s, dst)))
      e.set_arcs
  in
  { e with set_arcs; vars = mapped }

let duplicate_var e x x' =
  if Variable.Set.mem x' e.vars then
    invalid_arg "Evset.duplicate_var: shadow variable already occurs";
  if not (Variable.Set.mem x e.vars) then invalid_arg "Evset.duplicate_var: unknown variable";
  let shadow s =
    Marker.Set.fold
      (fun m acc ->
        match m with
        | Marker.Open y when Variable.equal y x -> Marker.Set.add (Marker.Open x') acc
        | Marker.Close y when Variable.equal y x -> Marker.Set.add (Marker.Close x') acc
        | Marker.Open _ | Marker.Close _ -> acc)
      s s
  in
  let set_arcs = Array.map (List.map (fun (s, dst) -> (shadow s, dst))) e.set_arcs in
  { e with set_arcs; vars = Variable.Set.add x' e.vars }

(* ------------------------------------------------------------------ *)
(* Decision procedures                                                 *)

let boundary_step e current set =
  if Marker.Set.is_empty set then current
  else begin
    let next = Bitset.create e.n in
    Bitset.iter
      (fun q ->
        List.iter
          (fun (s, dst) -> if Marker.Set.equal s set then Bitset.add next dst)
          e.set_arcs.(q))
      current;
    next
  end

let letter_step e current c =
  let next = Bitset.create e.n in
  Bitset.iter
    (fun q ->
      List.iter (fun (cs, dst) -> if Charset.mem cs c then Bitset.add next dst) e.letter_arcs.(q))
    current;
  next

let accepts_tuple e doc tuple =
  let marked = Ref_word.of_doc_tuple doc tuple in
  let _, sets = Ref_word.to_extended marked in
  let n = String.length doc in
  let current = ref (Bitset.of_list e.n [ e.initial ]) in
  (try
     for i = 0 to n - 1 do
       current := boundary_step e !current sets.(i);
       if Bitset.is_empty !current then raise Exit;
       current := letter_step e !current doc.[i]
     done;
     current := boundary_step e !current sets.(n)
   with Exit -> ());
  has_final e !current

let free_boundary_step e current =
  (* At most one set arc per boundary, labels unconstrained. *)
  let next = Bitset.copy current in
  Bitset.iter
    (fun q -> List.iter (fun (_, dst) -> Bitset.add next dst) e.set_arcs.(q))
    current;
  next

let nonempty_on e doc =
  let current = ref (Bitset.of_list e.n [ e.initial ]) in
  String.iter
    (fun c ->
      current := free_boundary_step e !current;
      current := letter_step e !current c)
    doc;
  current := free_boundary_step e !current;
  has_final e !current

let satisfiable e = reaches_final e ~through:(fun _ -> true)

let some_witness e =
  (* BFS over (state, boundary-flag) recording parents; flag = a set
     arc was already taken since the last letter. *)
  let idx q flag = (q * 2) + if flag then 1 else 0 in
  let parent = Array.make (e.n * 2) None in
  let seen = Bitset.create (e.n * 2) in
  let queue = Queue.create () in
  let start = idx e.initial false in
  Bitset.add seen start;
  Queue.add (e.initial, false) queue;
  let goal = ref None in
  while !goal = None && not (Queue.is_empty queue) do
    let q, flag = Queue.take queue in
    if is_final e q then goal := Some (q, flag)
    else begin
      if not flag then
        List.iter
          (fun (s, dst) ->
            let i = idx dst true in
            if not (Bitset.mem seen i) then begin
              Bitset.add seen i;
              parent.(i) <- Some (idx q flag, `Set s);
              Queue.add (dst, true) queue
            end)
          e.set_arcs.(q);
      List.iter
        (fun (cs, dst) ->
          let i = idx dst false in
          if not (Bitset.mem seen i) then
            match Charset.choose cs with
            | Some c ->
                Bitset.add seen i;
                parent.(i) <- Some (idx q flag, `Char c);
                Queue.add (dst, false) queue
            | None -> ())
        e.letter_arcs.(q)
    end
  done;
  match !goal with
  | None -> None
  | Some (q, flag) ->
      let rec walk i acc =
        match parent.(i) with None -> acc | Some (p, step) -> walk p (step :: acc)
      in
      let steps = walk (idx q flag) [] in
      let buf = Buffer.create 8 in
      let opens = Hashtbl.create 4 in
      let tuple = ref Span_tuple.empty in
      List.iter
        (fun step ->
          match step with
          | `Char c -> Buffer.add_char buf c
          | `Set s ->
              let pos = Buffer.length buf + 1 in
              Marker.Set.iter
                (function
                  | Marker.Open x -> Hashtbl.replace opens x pos
                  | Marker.Close x ->
                      let left = Option.value ~default:pos (Hashtbl.find_opt opens x) in
                      tuple := Span_tuple.bind !tuple x (Span.make left pos))
                s)
        steps;
      Some (Buffer.contents buf, !tuple)

(* Containment by subset simulation over canonical extended words. *)
let contains a b =
  let seen = Bitset.Tbl.create 64 in
  let visited (qb, flag, set) =
    Bitset.seen_pair seen ~capacity:(2 * b.n) ((2 * qb) + Bool.to_int flag) set
  in
  let start = Bitset.of_list a.n [ a.initial ] in
  let ok = ref true in
  let pending = Queue.create () in
  ignore (visited (b.initial, false, start));
  Queue.add (b.initial, false, start) pending;
  while !ok && not (Queue.is_empty pending) do
    let qb, flag, set = Queue.take pending in
    if is_final b qb && not (has_final a set) then ok := false
    else begin
      (* A final state may still extend to longer words, so successors
         are explored either way. *)
      if not flag then
        List.iter
          (fun (s, dst) ->
            let next = boundary_step a set s in
            if not (visited (dst, true, next)) then Queue.add (dst, true, next) pending)
          b.set_arcs.(qb);
      List.iter
        (fun (cs, dst) ->
          Charset.iter
            (fun c ->
              let next = letter_step a set c in
              if not (visited (dst, false, next)) then Queue.add (dst, false, next) pending)
            cs)
        b.letter_arcs.(qb)
    end
  done;
  !ok

let equal_spanner a b = contains a b && contains b a

(* Strict-overlap witness search: is there an accepting run with
   open x < open y < close x < close y, all at distinct boundaries? *)
let overlap_possible e x y =
  let expected = [| Marker.Open x; Marker.Open y; Marker.Close x; Marker.Close y |] in
  let pattern_marker m = Array.exists (fun m' -> Marker.equal m m') expected in
  (* Config: (state, phase 0..4, fresh).  fresh = a letter was read
     since the last phase advance (phase 0 counts as always fresh). *)
  let idx q phase fresh = (((q * 5) + phase) * 2) + if fresh then 1 else 0 in
  let seen = Bitset.create (e.n * 5 * 2) in
  let queue = Queue.create () in
  let push q phase fresh =
    let i = idx q phase fresh in
    if not (Bitset.mem seen i) then begin
      Bitset.add seen i;
      Queue.add (q, phase, fresh) queue
    end
  in
  push e.initial 0 true;
  let found = ref false in
  while (not !found) && not (Queue.is_empty queue) do
    let q, phase, fresh = Queue.take queue in
    if phase = 4 && is_final e q then found := true
    else begin
      (* End of word can also be reached after a final set arc; handled
         by the set-arc case below since finals absorb ε-closure. *)
      List.iter
        (fun (s, dst) ->
          let present = Marker.Set.filter pattern_marker s in
          match Marker.Set.cardinal present with
          | 0 -> push dst phase fresh
          | 1 when phase < 4 && Marker.Set.mem expected.(phase) present && (phase = 0 || fresh)
            ->
              if phase + 1 = 4 && is_final e dst then found := true
              else push dst (phase + 1) false
          | _ -> (* out-of-order or same-boundary pattern markers: this
                    run cannot witness a strict overlap *) ())
        e.set_arcs.(q);
      List.iter (fun (cs, dst) -> if not (Charset.is_empty cs) then push dst phase true)
        e.letter_arcs.(q)
    end
  done;
  !found

let hierarchical e =
  let xs = Variable.Set.elements e.vars in
  not
    (List.exists
       (fun x -> List.exists (fun y -> (not (Variable.equal x y)) && overlap_possible e x y) xs)
       xs)

(* ------------------------------------------------------------------ *)
(* Materialising evaluation (reference oracle)                         *)

let eval e doc =
  let n = String.length doc in
  (* Backward usefulness: back.(i) = states at boundary i (before the
     boundary's set arc) from which acceptance is reachable. *)
  let back = Array.make (n + 1) (Bitset.create e.n) in
  let mid = Array.make (n + 1) (Bitset.create e.n) in
  (* mid.(i) = states from which the letter step at position i leads
     into back.(i+1); at i = n, mid.(n) = finals. *)
  let close_boundary m =
    let r = Bitset.copy m in
    for q = 0 to e.n - 1 do
      if List.exists (fun (_, dst) -> Bitset.mem m dst) e.set_arcs.(q) then Bitset.add r q
    done;
    r
  in
  mid.(n) <- Bitset.copy e.final_set;
  back.(n) <- close_boundary mid.(n);
  for i = n - 1 downto 0 do
    let m = Bitset.create e.n in
    for q = 0 to e.n - 1 do
      if
        List.exists
          (fun (cs, dst) -> Charset.mem cs doc.[i] && Bitset.mem back.(i + 1) dst)
          e.letter_arcs.(q)
      then Bitset.add m q
    done;
    mid.(i) <- m;
    back.(i) <- close_boundary m
  done;
  let result = ref (Span_relation.empty e.vars) in
  let emit opens tuple = ignore opens; result := Span_relation.add !result tuple in
  (* DFS over (boundary, state, set-arc-taken flag). [opens] maps open
     variables to their left position; [tuple] holds closed spans. *)
  let rec dfs i q flag opens tuple =
    if i = n && is_final e q then emit opens tuple;
    if not flag then
      List.iter
        (fun (s, dst) ->
          if Bitset.mem (if i = n then mid.(n) else mid.(i)) dst then begin
            let opens', tuple' =
              Marker.Set.fold
                (fun m (o, t) ->
                  match m with
                  | Marker.Open x -> (Variable.Map.add x (i + 1) o, t)
                  | Marker.Close x ->
                      let left =
                        match Variable.Map.find_opt x o with Some l -> l | None -> i + 1
                      in
                      (Variable.Map.remove x o, Span_tuple.bind t x (Span.make left (i + 1))))
                s (opens, tuple)
            in
            dfs i dst true opens' tuple'
          end)
        e.set_arcs.(q);
    if i < n then
      List.iter
        (fun (cs, dst) ->
          if Charset.mem cs doc.[i] && Bitset.mem back.(i + 1) dst then
            dfs (i + 1) dst false opens tuple)
        e.letter_arcs.(q)
  in
  if Bitset.mem back.(0) e.initial then dfs 0 e.initial false Variable.Map.empty Span_tuple.empty;
  !result

(* ------------------------------------------------------------------ *)
(* Visualisation                                                       *)

let pp_dot ppf e =
  let escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '"' -> "\\\""
           | '\\' -> "\\\\"
           | c when Char.code c < 32 -> Printf.sprintf "\\\\x%02x" (Char.code c)
           | c -> String.make 1 c (* UTF-8 bytes pass through; Graphviz is UTF-8 *))
         (List.init (String.length s) (String.get s)))
  in
  Format.fprintf ppf "digraph evset {@\n  rankdir=LR;@\n  node [shape=circle];@\n";
  Format.fprintf ppf "  start [shape=point];@\n  start -> q%d;@\n" e.initial;
  for q = 0 to e.n - 1 do
    if is_final e q then Format.fprintf ppf "  q%d [shape=doublecircle];@\n" q
  done;
  for q = 0 to e.n - 1 do
    List.iter
      (fun (cs, dst) ->
        Format.fprintf ppf "  q%d -> q%d [label=\"%s\"];@\n" q dst
          (escape (Format.asprintf "%a" Charset.pp cs)))
      e.letter_arcs.(q);
    List.iter
      (fun (s, dst) ->
        Format.fprintf ppf "  q%d -> q%d [style=dashed, label=\"%s\"];@\n" q dst
          (escape (Format.asprintf "%a" Marker.pp_set s)))
      e.set_arcs.(q)
  done;
  Format.fprintf ppf "}@\n"

(* ------------------------------------------------------------------ *)
(* Back-conversion with canonical marker order (§2.2, Option 1)        *)

let to_vset e =
  let b = Vset.Builder.create () in
  let states = Array.init e.n (fun _ -> Vset.Builder.add_state b) in
  for q = 0 to e.n - 1 do
    List.iter (fun (cs, dst) -> Vset.Builder.add_chars b states.(q) cs states.(dst)) e.letter_arcs.(q);
    List.iter
      (fun (s, dst) ->
        (* chain the markers in canonical order through fresh states *)
        let marks = Marker.Set.elements s in
        let rec go src = function
          | [] -> Vset.Builder.add_eps b src states.(dst)
          | [ m ] -> Vset.Builder.add_mark b src m states.(dst)
          | m :: rest ->
              let mid = Vset.Builder.add_state b in
              Vset.Builder.add_mark b src m mid;
              go mid rest
        in
        go states.(q) marks)
      e.set_arcs.(q)
  done;
  let finals =
    List.filter_map
      (fun q -> if Bitset.mem e.final_set q then Some states.(q) else None)
      (List.init e.n Fun.id)
  in
  Vset.Builder.finish b ~initial:states.(e.initial) ~finals ~vars:e.vars
