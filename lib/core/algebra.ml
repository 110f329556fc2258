type t =
  | Formula of Regex_formula.t
  | Automaton of Evset.t
  | Union of t * t
  | Join of t * t
  | Project of Variable.Set.t * t
  | Select of Variable.Set.t * t

let formula s = Formula (Regex_formula.parse s)

let rec schema = function
  | Formula f -> Regex_formula.vars f
  | Automaton a -> Evset.vars a
  | Union (a, b) | Join (a, b) -> Variable.Set.union (schema a) (schema b)
  | Project (vars, e) -> Variable.Set.inter vars (schema e)
  | Select (_, e) -> schema e

let rec is_regular = function
  | Formula _ | Automaton _ -> true
  | Union (a, b) | Join (a, b) -> is_regular a && is_regular b
  | Project (_, e) -> is_regular e
  | Select _ -> false

let rec compile_regular = function
  | Formula f -> Evset.of_formula f
  | Automaton a -> a
  | Union (a, b) -> Evset.union (compile_regular a) (compile_regular b)
  | Join (a, b) -> Evset.join (compile_regular a) (compile_regular b)
  | Project (vars, e) -> Evset.project vars (compile_regular e)
  | Select _ -> invalid_arg "Algebra.compile_regular: expression contains a string-equality selection"

let rec eval e doc =
  match e with
  | Formula f -> Evset.eval (Evset.of_formula f) doc
  | Automaton a -> Evset.eval a doc
  | Union (a, b) -> Span_relation.union (eval a doc) (eval b doc)
  | Join (a, b) -> Span_relation.join (eval a doc) (eval b doc)
  | Project (vars, e) -> Span_relation.project vars (eval e doc)
  | Select (vars, e) -> Span_relation.select_equal doc vars (eval e doc)

let rec size = function
  | Formula _ | Automaton _ -> 1
  | Union (a, b) | Join (a, b) -> 1 + size a + size b
  | Project (_, e) | Select (_, e) -> 1 + size e

(* ------------------------------------------------------------------ *)
(* Concrete syntax.

   pp and parse share one unambiguous grammar, so printed expressions
   re-parse (modulo the Automaton leaf, which has no textual form):

     expr   := join ("|" join)*                    union, lowest precedence
     join   := atom ("&" atom)*
     atom   := "rgx:" STRING | "file:" STRING
             | "pi" varset "(" expr ")"            projection
             | "sel" varset "(" expr ")"           string-equality selection
             | "(" expr ")"
     varset := "[" [ident ("," ident)*] "]"
     STRING := '"' (char | '\"' | '\\')* '"'

   pp prints binary operators fully parenthesised, so the printed form
   is a fixpoint of parse∘pp (the round-trip property tested in
   test_optimizer.ml). *)

module Limits = Spanner_util.Limits

let escape_formula s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      (match c with '"' | '\\' -> Buffer.add_char buf '\\' | _ -> ());
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp_vars ppf vars =
  Format.fprintf ppf "[%s]"
    (String.concat ", " (List.map Variable.name (Variable.Set.elements vars)))

let rec pp ppf = function
  | Formula f -> Format.fprintf ppf "rgx:\"%s\"" (escape_formula (Regex_formula.to_string f))
  | Automaton a -> Format.fprintf ppf "<automaton:%d states>" (Evset.size a)
  | Union (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
  | Join (a, b) -> Format.fprintf ppf "(%a & %a)" pp a pp b
  | Project (vars, e) -> Format.fprintf ppf "pi%a(%a)" pp_vars vars pp e
  | Select (vars, e) -> Format.fprintf ppf "sel%a(%a)" pp_vars vars pp e

let to_string e = Format.asprintf "%a" pp e

(* Hostile inputs are expected here (the CLI and the fuzz harness feed
   this parser raw bytes): every failure is a typed
   [Spanner_error (Parse _)], and nesting is capped so deeply
   parenthesised garbage cannot overflow the OCaml stack. *)
let max_depth = 1_000

let err pos msg = Limits.parse_error ~what:"algebra" ~pos msg

let default_load path =
  ignore path;
  err 0 "file: formulas are not enabled in this context"

let parse ?(load = default_load) s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let looking_at kw =
    !pos + String.length kw <= n && String.sub s !pos (String.length kw) = kw
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos else err !pos (Printf.sprintf "expected '%c'" c)
  in
  let ident () =
    skip_ws ();
    let start = !pos in
    let is_head c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
    let is_tail c = is_head c || (c >= '0' && c <= '9') in
    if !pos < n && is_head s.[!pos] then begin
      incr pos;
      while !pos < n && is_tail s.[!pos] do
        incr pos
      done;
      String.sub s start (!pos - start)
    end
    else err start "expected a variable name"
  in
  let varset () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Variable.Set.empty
    end
    else
      let rec go acc =
        let acc = Variable.Set.add (Variable.of_string (ident ())) acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go acc
        | Some ']' ->
            incr pos;
            acc
        | _ -> err !pos "expected ',' or ']' in variable set"
      in
      go Variable.Set.empty
  in
  (* A literal's text, with the offset in [s] of each of its bytes and
     of the closing quote, so that a formula error inside the literal
     is reported where it stands in [s]. *)
  let string_lit () =
    skip_ws ();
    let start = !pos in
    if peek () <> Some '"' then err !pos "expected '\"'";
    incr pos;
    let buf = Buffer.create 16 and offsets = ref [] in
    let rec go () =
      if !pos >= n then err start "unterminated string literal"
      else begin
        offsets := !pos :: !offsets;
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            if !pos + 1 >= n then err start "unterminated string literal";
            (match s.[!pos + 1] with
            | ('"' | '\\') as c -> Buffer.add_char buf c
            | _ -> err !pos "invalid escape in string literal (only \\\" and \\\\)");
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      end
    in
    go ();
    (Array.of_list (List.rev !offsets), Buffer.contents buf)
  in
  let formula_of ~what ~at text =
    try Formula (Regex_formula.parse text)
    with Spanner_fa.Regex.Parse_error (msg, p) -> Limits.parse_error ~what ~pos:(at p) msg
  in
  let rec expr d =
    if d > max_depth then err !pos "expression nested too deeply";
    let lhs = ref (join_chain d) in
    skip_ws ();
    while peek () = Some '|' do
      incr pos;
      lhs := Union (!lhs, join_chain d);
      skip_ws ()
    done;
    !lhs
  and join_chain d =
    let lhs = ref (atom d) in
    skip_ws ();
    while peek () = Some '&' do
      incr pos;
      lhs := Join (!lhs, atom d);
      skip_ws ()
    done;
    !lhs
  and atom d =
    skip_ws ();
    if looking_at "rgx:" then begin
      pos := !pos + 4;
      let offsets, text = string_lit () in
      formula_of ~what:"algebra formula" ~at:(Array.get offsets) text
    end
    else if looking_at "file:" then begin
      pos := !pos + 5;
      let _, path = string_lit () in
      (* an error in a file's formula is an offset into the file *)
      formula_of ~what:("algebra formula (" ^ path ^ ")") ~at:Fun.id (load path)
    end
    else if looking_at "pi" then begin
      pos := !pos + 2;
      let vars = varset () in
      expect '(';
      let e = expr (d + 1) in
      expect ')';
      Project (vars, e)
    end
    else if looking_at "sel" then begin
      pos := !pos + 3;
      let vars = varset () in
      expect '(';
      let e = expr (d + 1) in
      expect ')';
      Select (vars, e)
    end
    else if peek () = Some '(' then begin
      incr pos;
      let e = expr (d + 1) in
      expect ')';
      e
    end
    else err !pos "expected an expression (rgx:, file:, pi, sel or '(')"
  in
  let e = expr 0 in
  skip_ws ();
  if !pos < n then err !pos "trailing input after expression";
  e
