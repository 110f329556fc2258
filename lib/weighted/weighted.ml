open Spanner_core
module Charset = Spanner_fa.Charset

module Make (K : Semiring.S) = struct
  type t = {
    auto : Evset.t;
    letter_weight : char -> K.t;
    set_weight : Marker.Set.t -> K.t;
  }

  let of_evset auto ~letter_weight ~set_weight = { auto; letter_weight; set_weight }

  let uniform auto = { auto; letter_weight = (fun _ -> K.one); set_weight = (fun _ -> K.one) }

  let n_states w = Evset.size w.auto

  (* One boundary step reading exactly the marker set [s] (∅ = no set
     arc taken, vector unchanged). *)
  let boundary_step w vec s =
    if Marker.Set.is_empty s then vec
    else begin
      let next = Array.make (n_states w) K.zero in
      Array.iteri
        (fun q wq ->
          if not (K.equal wq K.zero) then
            Evset.iter_set_arcs w.auto q (fun s' dst ->
                if Marker.Set.equal s s' then
                  next.(dst) <- K.plus next.(dst) (K.times wq (w.set_weight s))))
        vec;
      next
    end

  (* One boundary step with a free choice: skip or take any set arc. *)
  let free_boundary_step w vec =
    let next = Array.copy vec in
    Array.iteri
      (fun q wq ->
        if not (K.equal wq K.zero) then
          Evset.iter_set_arcs w.auto q (fun s dst ->
              next.(dst) <- K.plus next.(dst) (K.times wq (w.set_weight s))))
      vec;
    next

  let letter_step w vec c =
    let next = Array.make (n_states w) K.zero in
    let wc = w.letter_weight c in
    Array.iteri
      (fun q wq ->
        if not (K.equal wq K.zero) then
          Evset.iter_letter_arcs w.auto q (fun cs dst ->
              if Charset.mem cs c then next.(dst) <- K.plus next.(dst) (K.times wq wc)))
      vec;
    next

  let finish w vec =
    let total = ref K.zero in
    Array.iteri (fun q wq -> if Evset.is_final w.auto q then total := K.plus !total wq) vec;
    !total

  let initial_vec w =
    let vec = Array.make (n_states w) K.zero in
    vec.(Evset.initial w.auto) <- K.one;
    vec

  let tuple_weight w doc tuple =
    if
      List.exists (fun (_, sp) -> not (Span.fits sp doc)) (Span_tuple.bindings tuple)
      || not (Variable.Set.subset (Span_tuple.domain tuple) (Evset.vars w.auto))
    then K.zero
    else begin
      let marked = Ref_word.of_doc_tuple doc tuple in
      let _, sets = Ref_word.to_extended marked in
      let n = String.length doc in
      let vec = ref (initial_vec w) in
      for i = 0 to n - 1 do
        vec := boundary_step w !vec sets.(i);
        vec := letter_step w !vec doc.[i]
      done;
      vec := boundary_step w !vec sets.(n);
      finish w !vec
    end

  let total_weight w doc =
    let vec = ref (initial_vec w) in
    String.iter
      (fun c ->
        vec := free_boundary_step w !vec;
        vec := letter_step w !vec c)
      doc;
    vec := free_boundary_step w !vec;
    finish w !vec

  let weighted_relation w doc =
    let tuples = Compiled.eval (Compiled.of_evset w.auto) doc in
    let weighted =
      List.map (fun t -> (t, tuple_weight w doc t)) (Span_relation.tuples tuples)
    in
    List.sort
      (fun (t1, w1) (t2, w2) ->
        let c = K.compare w1 w2 in
        if c <> 0 then c else Span_tuple.compare t1 t2)
      weighted

  let best w doc = match weighted_relation w doc with [] -> None | x :: _ -> Some x
end
