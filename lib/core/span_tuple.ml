type t = Span.t Variable.Map.t

let empty = Variable.Map.empty

let bind t x s = Variable.Map.add x s t

let of_list bindings = List.fold_left (fun t (x, s) -> bind t x s) empty bindings

let find t x = Variable.Map.find_opt x t

let get t x = Variable.Map.find x t

let domain t = Variable.Map.fold (fun x _ acc -> Variable.Set.add x acc) t Variable.Set.empty

let is_functional_on t vars = Variable.Set.for_all (fun x -> Variable.Map.mem x t) vars

let bindings t = Variable.Map.bindings t

let equal a b = Variable.Map.equal Span.equal a b

let compare a b = Variable.Map.compare Span.compare a b

let hash t =
  Variable.Map.fold (fun x s acc -> (acc * 31) + (Variable.hash x lxor Span.hash s)) t 17

let project vars t = Variable.Map.filter (fun x _ -> Variable.Set.mem x vars) t

let compatible a b =
  Variable.Map.for_all
    (fun x s -> match find b x with None -> true | Some s' -> Span.equal s s')
    a

let merge a b =
  if not (compatible a b) then invalid_arg "Span_tuple.merge: incompatible tuples";
  Variable.Map.union (fun _ s _ -> Some s) a b

let fuse vars ~into t =
  let fused =
    Variable.Map.fold
      (fun x s acc ->
        if Variable.Set.mem x vars then
          match acc with None -> Some s | Some s' -> Some (Span.fuse s s')
        else acc)
      t None
  in
  let without = Variable.Map.filter (fun x _ -> not (Variable.Set.mem x vars)) t in
  match fused with None -> without | Some s -> bind without into s

let satisfies_equality t doc vars =
  let contents =
    Variable.Set.fold
      (fun x acc -> match find t x with None -> acc | Some s -> Span.content s doc :: acc)
      vars []
  in
  match contents with
  | [] | [ _ ] -> true
  | first :: rest -> List.for_all (String.equal first) rest

let hierarchical t =
  let spans = List.map snd (bindings t) in
  let rec pairs = function
    | [] -> true
    | s :: rest -> List.for_all (Span.hierarchical s) rest && pairs rest
  in
  pairs spans

let add_to_buffer buf t =
  Buffer.add_char buf '(';
  let first = ref true in
  Variable.Map.iter
    (fun x (s : Span.t) ->
      if not !first then Buffer.add_string buf ", ";
      first := false;
      Buffer.add_string buf (Variable.name x);
      Buffer.add_string buf " ↦ [";
      Buffer.add_string buf (string_of_int s.left);
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int s.right);
      Buffer.add_string buf "⟩")
    t;
  Buffer.add_char buf ')'

let pp ppf t =
  let buf = Buffer.create 64 in
  add_to_buffer buf t;
  Format.pp_print_string ppf (Buffer.contents buf)
