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

let rec of_formula = function
  | Regex_formula.Empty -> Empty
  | Regex_formula.Epsilon -> Epsilon
  | Regex_formula.Chars cs -> Chars cs
  | Regex_formula.Bind (x, f) -> Bind (x, of_formula f)
  | Regex_formula.Concat (a, b) -> concat (of_formula a) (of_formula b)
  | Regex_formula.Alt (a, b) -> alt (of_formula a) (of_formula b)
  | Regex_formula.Star f -> star (of_formula f)
  | Regex_formula.Plus f -> plus (of_formula f)
  | Regex_formula.Opt f -> opt (of_formula f)

let rec vars = function
  | Empty | Epsilon | Chars _ -> Variable.Set.empty
  | Bind (x, r) -> Variable.Set.add x (vars r)
  | Ref x -> Variable.Set.singleton x
  | Concat (a, b) | Alt (a, b) -> Variable.Set.union (vars a) (vars b)
  | Star r | Plus r | Opt r -> vars r

let rec size = function
  | Empty | Epsilon | Chars _ | Ref _ -> 1
  | Bind (_, r) | Star r | Plus r | Opt r -> 1 + size r
  | Concat (a, b) | Alt (a, b) -> 1 + size a + size b

(* ------------------------------------------------------------------ *)
(* Parser: regex-formula grammar plus [&x]                             *)

let parse =
  Regex.parse_with
    {
      Regex.epsilon;
      chars;
      concat;
      alt;
      star;
      plus;
      opt;
      size;
      bind = Some (fun x -> bind (Variable.of_string x));
      reference = Some (fun x -> reference (Variable.of_string x));
    }

let rec pp_prec prec ppf r =
  let parens lvl body = if prec > lvl then Format.fprintf ppf "(%t)" body else body ppf in
  match r with
  | Empty -> Format.pp_print_string ppf "[]"
  | Epsilon -> Format.pp_print_string ppf "()"
  | Chars cs ->
      (match Charset.elements cs with
      | [ c ] ->
          if Regex.is_meta c then Format.fprintf ppf "\\%c" c else Format.fprintf ppf "%c" c
      | _ -> Charset.pp ppf cs)
  | Bind (x, r) -> Format.fprintf ppf "!%a{%a}" Variable.pp x (pp_prec 0) r
  | Ref x -> Format.fprintf ppf "&%a" Variable.pp x
  | Alt (a, b) -> parens 0 (fun ppf -> Format.fprintf ppf "%a|%a" (pp_prec 0) a (pp_prec 0) b)
  | Concat (a, b) ->
      parens 1 (fun ppf -> Format.fprintf ppf "%a%a" (pp_prec 1) a (pp_prec 1) b)
  | Star a -> parens 2 (fun ppf -> Format.fprintf ppf "%a*" (pp_prec 2) a)
  | Plus a -> parens 2 (fun ppf -> Format.fprintf ppf "%a+" (pp_prec 2) a)
  | Opt a -> parens 2 (fun ppf -> Format.fprintf ppf "%a?" (pp_prec 2) a)

let pp ppf r = pp_prec 0 ppf r

let to_string r = Format.asprintf "%a" pp r
