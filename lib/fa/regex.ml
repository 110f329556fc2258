type t =
  | Empty
  | Epsilon
  | Chars of Charset.t
  | Concat of t * t
  | Alt of t * t
  | Star of t
  | Plus of t
  | Opt of t

let empty = Empty

let epsilon = Epsilon

let chars cs = if Charset.is_empty cs then Empty else Chars cs

let char c = Chars (Charset.singleton c)

let concat a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Epsilon, r | r, Epsilon -> r
  | _ -> Concat (a, b)

let alt a b =
  match (a, b) with
  | Empty, r | r, Empty -> r
  | Chars x, Chars y -> Chars (Charset.union x y)
  | _ -> if a = b then a else Alt (a, b)

let star = function
  | Empty | Epsilon -> Epsilon
  | Star _ as r -> r
  | r -> Star r

let plus = function Empty -> Empty | Epsilon -> Epsilon | r -> Plus r

let opt = function
  | Empty -> Epsilon
  | Epsilon -> Epsilon
  | (Star _ | Opt _) as r -> r
  | r -> Opt r

let concat_list rs = List.fold_left concat Epsilon rs

let alt_list rs = List.fold_left alt Empty rs

let str s = concat_list (List.map char (List.init (String.length s) (String.get s)))

let rec nullable = function
  | Empty | Chars _ -> false
  | Epsilon | Star _ | Opt _ -> true
  | Concat (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b
  | Plus r -> nullable r

let rec is_empty_lang = function
  | Empty -> true
  | Epsilon | Star _ | Opt _ -> false
  | Chars cs -> Charset.is_empty cs
  | Concat (a, b) -> is_empty_lang a || is_empty_lang b
  | Alt (a, b) -> is_empty_lang a && is_empty_lang b
  | Plus r -> is_empty_lang r

let rec size = function
  | Empty | Epsilon | Chars _ -> 1
  | Star r | Plus r | Opt r -> 1 + size r
  | Concat (a, b) | Alt (a, b) -> 1 + size a + size b

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

exception Parse_error of string * int

(* Bounded repetitions expand syntactically ("a{3}" = "aaa"), so
   nested counted repetitions multiply: "a{99}{99}{99}" would build
   ~10^6 nodes and deeper nestings OOM the parser itself on
   adversarial input.  Every repetition application is therefore
   capped, per count and per expanded subterm size. *)
let max_repeat = 4096
let max_expansion = 65536

(* '{', '}', '&' and '!' are claimed by the spanner-level syntaxes
   (variable bindings and references); reserving them in every grammar
   keeps one escaping discipline. *)
let is_meta c = String.contains "|*+?()[]{}.\\&!" c

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if is_meta c then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

type 'a syntax = {
  epsilon : 'a;
  chars : Charset.t -> 'a;
  concat : 'a -> 'a -> 'a;
  alt : 'a -> 'a -> 'a;
  star : 'a -> 'a;
  plus : 'a -> 'a;
  opt : 'a -> 'a;
  size : 'a -> int;
  bind : (string -> 'a -> 'a) option;
  reference : (string -> 'a) option;
}

type 'a parser_state = {
  syn : 'a syntax;
  input : string;
  mutable pos : int;
  mutable depth : int;  (* open !x{ bindings: only inside one does '}' end a term *)
}

let fail st message = raise (Parse_error (message, st.pos))

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_ident st =
  let start = st.pos in
  while
    match peek st with Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') -> true | _ -> false
  do
    advance st
  done;
  if st.pos = start then fail st "expected a variable name";
  String.sub st.input start (st.pos - start)

(* One class member at [st.pos] (the caller has seen a byte there),
   after its escape if any. *)
let class_char st =
  let c = st.input.[st.pos] in
  advance st;
  if c <> '\\' then c
  else
    match peek st with
    | Some d ->
        advance st;
        d
    | None -> fail st "dangling escape in character class"

let parse_class st =
  (* Called just after '['. *)
  let negated =
    match peek st with
    | Some '^' ->
        advance st;
        true
    | _ -> false
  in
  let rec items acc =
    match peek st with
    | None -> fail st "unterminated character class"
    | Some ']' ->
        advance st;
        acc
    | Some _ -> (
        let lo = class_char st in
        (* A '-' between two characters denotes a range; a trailing or
           leading '-' is a literal. *)
        match peek st with
        | Some '-'
          when st.pos + 1 < String.length st.input && st.input.[st.pos + 1] <> ']' ->
            advance st;
            let hi = class_char st in
            if Char.code hi < Char.code lo then fail st "inverted range";
            items (Charset.union acc (Charset.range lo hi))
        | _ -> items (Charset.add acc lo))
  in
  let cs = items Charset.empty in
  if negated then Charset.complement cs else cs

(* A bounded repetition suffix "{m}", "{m,}" or "{m,n}" just after the
   '{'.  Returns (m, n option); n = None means unbounded. *)
let parse_bounds st =
  let read_int () =
    let start = st.pos in
    while (match peek st with Some ('0' .. '9') -> true | _ -> false) do
      advance st
    done;
    if st.pos = start then fail st "expected a repetition count";
    match int_of_string_opt (String.sub st.input start (st.pos - start)) with
    | Some n -> n
    | None -> fail st "repetition count too large"
  in
  let m = read_int () in
  let bounds =
    match peek st with
    | Some ',' ->
        advance st;
        (match peek st with
        | Some '0' .. '9' ->
            let n = read_int () in
            if n < m then fail st "repetition bounds out of order";
            (m, Some n)
        | _ -> (m, None))
    | _ -> (m, Some m)
  in
  expect st '}';
  bounds

let rec parse_alt st =
  let left = parse_concat st in
  match peek st with
  | Some '|' ->
      advance st;
      st.syn.alt left (parse_alt st)
  | _ -> left

and parse_concat st =
  let rec loop acc =
    match peek st with
    | None | Some ('|' | ')') -> acc
    | Some '}' when st.depth > 0 -> acc
    | Some ('*' | '+' | '?') -> fail st "dangling postfix operator"
    | Some _ -> loop (st.syn.concat acc (parse_postfix st))
  in
  loop st.syn.epsilon

and parse_postfix st =
  let syn = st.syn in
  let base = parse_atom st in
  let rec loop r =
    match peek st with
    | Some '*' ->
        advance st;
        loop (syn.star r)
    | Some '+' ->
        advance st;
        loop (syn.plus r)
    | Some '?' ->
        advance st;
        loop (syn.opt r)
    | Some '{' ->
        advance st;
        let m, n = parse_bounds st in
        if m > max_repeat || (match n with Some n -> n > max_repeat | None -> false) then
          fail st "repetition count too large";
        let units = match n with None -> m + 1 | Some n -> max n 1 in
        if units * syn.size r > max_expansion then fail st "bounded repetition expands too far";
        let concat_list rs = List.fold_left syn.concat syn.epsilon rs in
        let repeated = concat_list (List.init m (fun _ -> r)) in
        let tail =
          match n with
          | None -> syn.star r
          | Some n -> concat_list (List.init (n - m) (fun _ -> syn.opt r))
        in
        loop (syn.concat repeated tail)
    | _ -> r
  in
  loop base

and parse_atom st =
  let syn = st.syn in
  match (peek st, syn.bind, syn.reference) with
  | None, _, _ -> fail st "expected an atom"
  | Some '!', Some bind, _ ->
      advance st;
      let name = parse_ident st in
      expect st '{';
      st.depth <- st.depth + 1;
      let body = parse_alt st in
      expect st '}';
      st.depth <- st.depth - 1;
      bind name body
  | Some '&', _, Some reference ->
      advance st;
      reference (parse_ident st)
  | Some '(', _, _ ->
      advance st;
      let r = parse_alt st in
      expect st ')';
      r
  | Some '[', _, _ ->
      advance st;
      syn.chars (parse_class st)
  | Some '.', _, _ ->
      advance st;
      syn.chars Charset.full
  | Some '\\', _, _ ->
      advance st;
      (match peek st with
      | Some c ->
          advance st;
          syn.chars (Charset.singleton c)
      | None -> fail st "dangling escape")
  | Some (('{' | '}' | '&' | '!') as c), _, _ ->
      fail st (Printf.sprintf "reserved character '%c' must be escaped" c)
  | Some c, _, _ ->
      advance st;
      syn.chars (Charset.singleton c)

let parse_with syn input =
  let st = { syn; input; pos = 0; depth = 0 } in
  let r = parse_alt st in
  (match peek st with None -> () | Some c -> fail st (Printf.sprintf "unexpected '%c'" c));
  r

let parse =
  parse_with
    { epsilon; chars; concat; alt; star; plus; opt; size; bind = None; reference = None }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let rec pp_prec prec ppf r =
  let parens lvl body =
    if prec > lvl then Format.fprintf ppf "(%t)" body else body ppf
  in
  match r with
  | Empty -> Format.pp_print_string ppf "[]"
  | Epsilon -> Format.pp_print_string ppf "()"
  | Chars cs ->
      (match Charset.elements cs with
      | [ c ] when not (Charset.equal cs Charset.full) ->
          if is_meta c then Format.fprintf ppf "\\%c" c else Format.fprintf ppf "%c" c
      | _ -> Charset.pp ppf cs)
  | Alt (a, b) -> parens 0 (fun ppf -> Format.fprintf ppf "%a|%a" (pp_prec 0) a (pp_prec 0) b)
  | Concat (a, b) ->
      parens 1 (fun ppf -> Format.fprintf ppf "%a%a" (pp_prec 1) a (pp_prec 1) b)
  | Star a -> parens 2 (fun ppf -> Format.fprintf ppf "%a*" (pp_prec 2) a)
  | Plus a -> parens 2 (fun ppf -> Format.fprintf ppf "%a+" (pp_prec 2) a)
  | Opt a -> parens 2 (fun ppf -> Format.fprintf ppf "%a?" (pp_prec 2) a)

let pp ppf r = pp_prec 0 ppf r

let to_string r = Format.asprintf "%a" pp r
