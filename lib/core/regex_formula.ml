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

let rec of_regex = function
  | Regex.Empty -> Empty
  | Regex.Epsilon -> Epsilon
  | Regex.Chars cs -> Chars cs
  | Regex.Concat (a, b) -> concat (of_regex a) (of_regex b)
  | Regex.Alt (a, b) -> alt (of_regex a) (of_regex b)
  | Regex.Star a -> star (of_regex a)
  | Regex.Plus a -> plus (of_regex a)
  | Regex.Opt a -> opt (of_regex a)

let rec vars = function
  | Empty | Epsilon | Chars _ -> Variable.Set.empty
  | Bind (x, f) -> Variable.Set.add x (vars f)
  | Concat (a, b) | Alt (a, b) -> Variable.Set.union (vars a) (vars b)
  | Star f | Plus f | Opt f -> vars f

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

let rec size = function
  | Empty | Epsilon | Chars _ -> 1
  | Bind (_, f) | Star f | Plus f | Opt f -> 1 + size f
  | Concat (a, b) | Alt (a, b) -> 1 + size a + size b

(* ------------------------------------------------------------------ *)
(* Parsing: the regex grammar of Spanner_fa.Regex plus  !x{ α }        *)

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
      reference = None;
    }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let rec pp_prec prec ppf f =
  let parens lvl body = if prec > lvl then Format.fprintf ppf "(%t)" body else body ppf in
  match f with
  | Empty -> Format.pp_print_string ppf "[]"
  | Epsilon -> Format.pp_print_string ppf "()"
  | Chars cs ->
      (match Charset.elements cs with
      | [ c ] ->
          if Regex.is_meta c then Format.fprintf ppf "\\%c" c else Format.fprintf ppf "%c" c
      | _ -> Charset.pp ppf cs)
  | Bind (x, f) -> Format.fprintf ppf "!%a{%a}" Variable.pp x (pp_prec 0) f
  | Alt (a, b) -> parens 0 (fun ppf -> Format.fprintf ppf "%a|%a" (pp_prec 0) a (pp_prec 0) b)
  | Concat (a, b) ->
      parens 1 (fun ppf -> Format.fprintf ppf "%a%a" (pp_prec 1) a (pp_prec 1) b)
  | Star a -> parens 2 (fun ppf -> Format.fprintf ppf "%a*" (pp_prec 2) a)
  | Plus a -> parens 2 (fun ppf -> Format.fprintf ppf "%a+" (pp_prec 2) a)
  | Opt a -> parens 2 (fun ppf -> Format.fprintf ppf "%a?" (pp_prec 2) a)

let pp ppf f = pp_prec 0 ppf f

let to_string f = Format.asprintf "%a" pp f
