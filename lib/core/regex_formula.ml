module Regex = Spanner_fa.Regex
module Charset = Spanner_fa.Charset

type t =
  | Empty
  | Epsilon
  | Chars of Charset.t
  | Bind of Variable.t * t
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

let empty = Empty

let epsilon = Epsilon

let chars cs = if Charset.is_empty cs then Empty else Chars cs

let char c = Chars (Charset.singleton c)

let bind x f = Bind (x, f)

let concat a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Epsilon, f | f, Epsilon -> f
  | _ -> Concat (a, b)

let alt a b = match (a, b) with Empty, f | f, Empty -> f | _ -> Alt (a, b)

let star = function Empty | Epsilon -> Epsilon | f -> Star f

let plus = function Empty -> Empty | Epsilon -> Epsilon | f -> Plus f

let opt = function Empty | Epsilon -> Epsilon | f -> Opt f

let concat_list fs = List.fold_left concat Epsilon fs

let alt_list fs = List.fold_left alt Empty fs

let str s = concat_list (List.map char (List.init (String.length s) (String.get s)))

let syntax =
  {
    Regex.epsilon;
    chars;
    concat;
    alt;
    star;
    plus;
    opt;
    bind = Some (fun x -> bind (Variable.of_string x));
    reference = None;
  }

let fold (syn : _ Regex.syntax) f =
  let rec go = function
    | Empty -> syn.chars Charset.empty
    | Epsilon -> syn.epsilon
    | Chars cs -> syn.chars cs
    | Bind (x, f) -> Option.get syn.bind (Variable.name x) (go f)
    | Concat (a, b) -> syn.concat (go a) (go b)
    | Alt (a, b) -> syn.alt (go a) (go b)
    | Star f -> syn.star (go f)
    | Plus f -> syn.plus (go f)
    | Opt f -> syn.opt (go f)
  in
  go f

let of_regex = Regex.fold syntax

let vars =
  fold
    (Regex.names ~empty:Variable.Set.empty ~union:Variable.Set.union ~add:(fun x ->
         Variable.Set.add (Variable.of_string x)))

type functionality = Total | Schemaless | Ill_formed of string

let functionality f =
  let exception Ill of string in
  (* [walk f] returns (must, may): the variables marked on *every*
     word of L(f) and on *some* word.  Raises on any shape that could
     mark a variable twice. *)
  let rec walk = function
    | Empty | Epsilon | Chars _ -> (Variable.Set.empty, Variable.Set.empty)
    | Bind (x, f) ->
        let must, may = walk f in
        if Variable.Set.mem x may then
          raise (Ill (Printf.sprintf "variable %s bound inside its own binding" (Variable.name x)));
        (Variable.Set.add x must, Variable.Set.add x may)
    | Concat (a, b) ->
        let must_a, may_a = walk a and must_b, may_b = walk b in
        let clash = Variable.Set.inter may_a may_b in
        if not (Variable.Set.is_empty clash) then
          raise
            (Ill
               (Printf.sprintf "variable %s can be bound on both sides of a concatenation"
                  (Variable.name (Variable.Set.choose clash))));
        (Variable.Set.union must_a must_b, Variable.Set.union may_a may_b)
    | Alt (a, b) ->
        let must_a, may_a = walk a and must_b, may_b = walk b in
        (Variable.Set.inter must_a must_b, Variable.Set.union may_a may_b)
    | Star f | Plus f ->
        let _, may = walk f in
        if not (Variable.Set.is_empty may) then
          raise
            (Ill
               (Printf.sprintf "variable %s bound under an iteration"
                  (Variable.name (Variable.Set.choose may))));
        (Variable.Set.empty, Variable.Set.empty)
    | Opt f ->
        let _, may = walk f in
        (Variable.Set.empty, may)
  in
  match walk f with
  | must, may -> if Variable.Set.equal must may then Total else Schemaless
  | exception Ill reason -> Ill_formed reason

let is_well_formed f = match functionality f with Ill_formed _ -> false | Total | Schemaless -> true

let size = fold Regex.sizer

let parse = Regex.parse_with ~size syntax

let pp ppf f = Regex.print ppf (fold Regex.printer f)

let to_string f = Format.asprintf "%a" pp f
