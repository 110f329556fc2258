open Spanner_core
module Regex = Spanner_fa.Regex
module Charset = Spanner_fa.Charset

type t =
  | Empty
  | Epsilon
  | Chars of Charset.t
  | Bind of Variable.t * t
  | Ref of Variable.t
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

let empty = Empty

let epsilon = Epsilon

let chars cs = if Charset.is_empty cs then Empty else Chars cs

let char c = Chars (Charset.singleton c)

let bind x r = Bind (x, r)

let reference x = Ref x

let concat a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Epsilon, r | r, Epsilon -> r
  | _ -> Concat (a, b)

let alt a b = match (a, b) with Empty, r | r, Empty -> r | _ -> Alt (a, b)

let star = function Empty | Epsilon -> Epsilon | r -> Star r

let plus = function Empty -> Empty | Epsilon -> Epsilon | r -> Plus r

let opt = function Empty | Epsilon -> Epsilon | r -> Opt r

let concat_list rs = List.fold_left concat Epsilon rs

let alt_list rs = List.fold_left alt Empty rs

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
    reference = Some (fun x -> reference (Variable.of_string x));
  }

let fold (syn : _ Regex.syntax) r =
  let rec go = function
    | Empty -> syn.chars Charset.empty
    | Epsilon -> syn.epsilon
    | Chars cs -> syn.chars cs
    | Bind (x, r) -> Option.get syn.bind (Variable.name x) (go r)
    | Ref x -> Option.get syn.reference (Variable.name x)
    | Concat (a, b) -> syn.concat (go a) (go b)
    | Alt (a, b) -> syn.alt (go a) (go b)
    | Star r -> syn.star (go r)
    | Plus r -> syn.plus (go r)
    | Opt r -> syn.opt (go r)
  in
  go r

let of_formula = Regex_formula.fold syntax

let vars =
  fold
    (Regex.names ~empty:Variable.Set.empty ~union:Variable.Set.union ~add:(fun x ->
         Variable.Set.add (Variable.of_string x)))

let size = fold Regex.sizer

let parse = Regex.parse_with ~size syntax

let pp ppf r = Regex.print ppf (fold Regex.printer r)

let to_string r = Format.asprintf "%a" pp r
