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
  bind : (string -> 'a -> 'a) option;
  reference : (string -> 'a) option;
}

(* The inverse of [parse_with]: [Empty] is the empty class. *)
let fold syn r =
  let rec go = function
    | Empty -> syn.chars Charset.empty
    | Epsilon -> syn.epsilon
    | Chars cs -> syn.chars cs
    | Concat (a, b) -> syn.concat (go a) (go b)
    | Alt (a, b) -> syn.alt (go a) (go b)
    | Star a -> syn.star (go a)
    | Plus a -> syn.plus (go a)
    | Opt a -> syn.opt (go a)
  in
  go r

type 'a parser_state = {
  syn : 'a syntax;
  size : 'a -> int;
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

let is_ident = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let parse_ident st =
  let start = st.pos in
  while match peek st with Some c -> is_ident c | None -> false do
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
        if units * st.size r > max_expansion then fail st "bounded repetition expands too far";
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

let parse_with ~size syn input =
  let st = { syn; size; input; pos = 0; depth = 0 } in
  let r = parse_alt st in
  (match peek st with None -> () | Some c -> fail st (Printf.sprintf "unexpected '%c'" c));
  r

(* ------------------------------------------------------------------ *)
(* What the three grammars share, written once as [syntax] instances   *)

let sizer =
  let node1 a = 1 + a and node2 a b = 1 + a + b in
  {
    epsilon = 1;
    chars = (fun _ -> 1);
    concat = node2;
    alt = node2;
    star = node1;
    plus = node1;
    opt = node1;
    bind = Some (fun _ a -> node1 a);
    reference = Some (fun _ -> 1);
  }

let size = fold sizer

let names ~empty ~union ~add =
  {
    epsilon = empty;
    chars = (fun _ -> empty);
    concat = union;
    alt = union;
    star = Fun.id;
    plus = Fun.id;
    opt = Fun.id;
    bind = Some add;
    reference = Some (fun x -> add x empty);
  }

(* A printed term is asked for its text at the precedence of its
   context (0 under '|', 1 in a concatenation, 2 under a postfix
   operator) and told whether an identifier byte follows it, which a
   reference's name would swallow.  It answers whether its own text
   starts with an identifier byte, and how to print itself. *)
type printed = int -> bool -> bool * (Format.formatter -> unit)

let printer =
  (* [op lvl body] parenthesises [body] in a context binding tighter
     than [lvl] *)
  let op lvl body prec next =
    if prec > lvl then (false, fun ppf -> Format.fprintf ppf "(%t)" (snd (body false)))
    else body next
  in
  let atom lead pp : printed = fun _ _ -> (lead, pp) in
  let postfix sym a =
    op 2 (fun _ ->
        let lead, pa = a 2 false in
        (lead, fun ppf -> Format.fprintf ppf "%t%c" pa sym))
  in
  {
    epsilon = atom false (fun ppf -> Format.pp_print_string ppf "()");
    chars =
      (fun cs ->
        match Charset.elements cs with
        | [ c ] when is_meta c -> atom false (fun ppf -> Format.fprintf ppf "\\%c" c)
        | [ c ] -> atom (is_ident c) (fun ppf -> Format.pp_print_char ppf c)
        | _ -> atom false (fun ppf -> Charset.pp ppf cs));
    concat =
      (fun a b ->
        op 1 (fun next ->
            let lead_b, pb = b 1 next in
            let lead, pa = a 1 lead_b in
            (lead, fun ppf -> Format.fprintf ppf "%t%t" pa pb)));
    alt =
      (fun a b ->
        op 0 (fun next ->
            let lead, pa = a 0 false and _, pb = b 0 next in
            (lead, fun ppf -> Format.fprintf ppf "%t|%t" pa pb)));
    star = postfix '*';
    plus = postfix '+';
    opt = postfix '?';
    bind =
      Some (fun x a -> atom false (fun ppf -> Format.fprintf ppf "!%s{%t}" x (snd (a 0 false))));
    reference =
      Some (fun x _ next -> (false, fun ppf -> Format.fprintf ppf (if next then "(&%s)" else "&%s") x));
  }

let print ppf (p : printed) = snd (p 0 false) ppf

module Node = struct
  type 'h t =
    | Empty
    | Epsilon
    | Chars of Charset.t
    | Concat of 'h * 'h
    | Alt of 'h * 'h
    | Star of 'h
    | Plus of 'h
    | Opt of 'h
    | Bind of string * 'h
    | Ref of string
end

let walk ~fresh ~wire =
  let node shape () =
    let h = fresh () in
    wire h (shape ());
    h
  in
  let node2 shape a b =
    node (fun () ->
        let a = a () in
        shape a (b ()))
  in
  {
    epsilon = node (fun () -> Node.Epsilon);
    chars = (fun cs -> node (fun () -> if Charset.is_empty cs then Node.Empty else Node.Chars cs));
    concat = node2 (fun a b -> Node.Concat (a, b));
    alt = node2 (fun a b -> Node.Alt (a, b));
    star = (fun a -> node (fun () -> Node.Star (a ())));
    plus = (fun a -> node (fun () -> Node.Plus (a ())));
    opt = (fun a -> node (fun () -> Node.Opt (a ())));
    bind = Some (fun x a -> node (fun () -> Node.Bind (x, a ())));
    reference = Some (fun x -> node (fun () -> Node.Ref x));
  }

let thompson ~state ~eps ~chars ?mark ?reference () =
  let fresh () =
    let entry = state () in
    (entry, state ())
  in
  let arcs = List.iter (fun (src, dst) -> eps src dst) in
  walk ~fresh ~wire:(fun (entry, exit_) -> function
    | Node.Empty -> ()
    | Epsilon -> eps entry exit_
    | Chars cs -> chars entry cs exit_
    | Concat ((e1, x1), (e2, x2)) -> arcs [ (entry, e1); (x1, e2); (x2, exit_) ]
    | Alt ((e1, x1), (e2, x2)) -> arcs [ (entry, e1); (entry, e2); (x1, exit_); (x2, exit_) ]
    | Star (ei, xi) -> arcs [ (entry, exit_); (entry, ei); (xi, ei); (xi, exit_) ]
    | Plus (ei, xi) -> arcs [ (entry, ei); (xi, ei); (xi, exit_) ]
    | Opt (ei, xi) -> arcs [ (entry, exit_); (entry, ei); (xi, exit_) ]
    | Bind (x, (ei, xi)) ->
        let mark = Option.get mark in
        mark entry ~opening:true x ei;
        mark xi ~opening:false x exit_
    | Ref x -> Option.get reference entry x exit_)

let parse =
  parse_with ~size
    { epsilon; chars; concat; alt; star; plus; opt; bind = None; reference = None }

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let pp ppf r = print ppf (fold printer r)

let to_string r = Format.asprintf "%a" pp r
