open Spanner_core
module Strhash = Spanner_util.Strhash
module Limits = Spanner_util.Limits

type literal =
  | Spanner of Evset.t * (Variable.t * string) list
  | Idb of string * string list
  | Content_eq of string * string
  | Adjacent of string * string

type rule = { head : string * string list; body : literal list }

type program = { rules : rule list; arities : (string, int) Hashtbl.t }

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let make rules =
  let arities = Hashtbl.create 8 in
  let record_arity name arity where =
    match Hashtbl.find_opt arities name with
    | Some a when a <> arity ->
        invalid_arg
          (Printf.sprintf "Datalog.make: predicate %s used with arities %d and %d (%s)" name a
             arity where)
    | Some _ -> ()
    | None -> Hashtbl.add arities name arity
  in
  List.iteri
    (fun i { head = hname, hvars; body } ->
      let where = Printf.sprintf "rule %d" i in
      record_arity hname (List.length hvars) where;
      (* left-to-right binding discipline *)
      let bound = Hashtbl.create 8 in
      let bind v = Hashtbl.replace bound v () in
      let check_bound v what =
        if not (Hashtbl.mem bound v) then
          invalid_arg
            (Printf.sprintf
               "Datalog.make: %s: variable %s of %s is not bound by an earlier positive atom"
               where v what)
      in
      List.iter
        (fun literal ->
          match literal with
          | Spanner (_, bindings) -> List.iter (fun (_, r) -> bind r) bindings
          | Idb (name, vars) ->
              record_arity name (List.length vars) where;
              List.iter bind vars
          | Content_eq (a, b) ->
              check_bound a "content_eq";
              check_bound b "content_eq"
          | Adjacent (a, b) ->
              check_bound a "adjacent";
              check_bound b "adjacent")
        body;
      List.iter
        (fun v ->
          if not (Hashtbl.mem bound v) then
            invalid_arg
              (Printf.sprintf "Datalog.make: %s: head variable %s is not range-restricted" where
                 v))
        hvars)
    rules;
  { rules; arities }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

module Row_set = Set.Make (struct
  type t = Span.t array

  let compare = Stdlib.compare
end)

type result = {
  tables : (string, Row_set.t) Hashtbl.t;
  rounds : int;
}



let lookup env v = List.assoc_opt v env

let extend env v span =
  match lookup env v with
  | Some s -> if Span.equal s span then Some env else None
  | None -> Some ((v, span) :: env)

let run ?limits p doc =
  let g = Limits.start (Option.value ~default:Limits.none limits) in
  (* Materialise each distinct spanner atom once (physical identity:
     the same automaton value shared between rules is shared here). *)
  let spanner_cache : (Evset.t * Span_relation.t) list ref = ref [] in
  let spanner_rows e =
    match List.find_opt (fun (e', _) -> e' == e) !spanner_cache with
    | Some (_, r) -> r
    | None ->
        let r = Compiled.eval ?limits (Compiled.of_evset ?limits e) doc in
        spanner_cache := (e, r) :: !spanner_cache;
        r
  in
  let tables : (string, Row_set.t) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter (fun name _ -> Hashtbl.replace tables name Row_set.empty) p.arities;
  let deltas : (string, Row_set.t) Hashtbl.t = Hashtbl.create 8 in
  let table name = Option.value ~default:Row_set.empty (Hashtbl.find_opt tables name) in
  let delta name = Option.value ~default:Row_set.empty (Hashtbl.find_opt deltas name) in
  let content_eq = Core_spanner.content_equal (Strhash.make doc) in
  (* Evaluate a rule body left to right.  [use_delta_at] forces the
     [k]-th IDB literal to range over the last round's delta (semi-naïve
     evaluation); [-1] means all IDB literals use the full tables. *)
  let eval_rule { head = hname, hvars; body } use_delta_at emit =
    let rec go idb_index literals env =
      (* one unit of fuel per binding step of the fixpoint *)
      Limits.check g;
      match literals with
      | [] ->
          let row =
            Array.of_list
              (List.map
                 (fun v ->
                   match lookup env v with
                   | Some s -> s
                   | None -> assert false (* range restriction *))
                 hvars)
          in
          emit hname row
      | Spanner (e, bindings) :: rest ->
          List.iter
            (fun tuple ->
              let rec bind_all env = function
                | [] -> Some env
                | (sv, rv) :: more -> (
                    match Span_tuple.find tuple sv with
                    | None -> None
                    | Some span -> (
                        match extend env rv span with
                        | None -> None
                        | Some env -> bind_all env more))
              in
              match bind_all env bindings with
              | Some env -> go idb_index rest env
              | None -> ())
            (Span_relation.tuples (spanner_rows e))
      | Idb (name, vars) :: rest ->
          let source = if idb_index = use_delta_at then delta name else table name in
          Row_set.iter
            (fun row ->
              let rec bind_all env i = function
                | [] -> Some env
                | v :: more -> (
                    match extend env v row.(i) with
                    | None -> None
                    | Some env -> bind_all env (i + 1) more)
              in
              match bind_all env 0 vars with
              | Some env -> go (idb_index + 1) rest env
              | None -> ())
            source;
          (* only descend through the recursion above *)
          ()
      | Content_eq (a, b) :: rest -> (
          match (lookup env a, lookup env b) with
          | Some sa, Some sb when content_eq sa sb -> go idb_index rest env
          | _ -> ())
      | Adjacent (a, b) :: rest -> (
          match (lookup env a, lookup env b) with
          | Some sa, Some sb when Span.right sa = Span.left sb -> go idb_index rest env
          | _ -> ())
    in
    go 0 body []
  in
  let idb_literal_count body =
    List.length (List.filter (function Idb _ -> true | _ -> false) body)
  in
  (* Round 0: rules evaluated with empty IDB tables derive the base
     facts (rules whose bodies have IDB literals derive nothing yet). *)
  let fresh : (string, Row_set.t) Hashtbl.t = Hashtbl.create 8 in
  let derived = ref 0 in
  let emit name row =
    let current = Option.value ~default:Row_set.empty (Hashtbl.find_opt fresh name) in
    if not (Row_set.mem row (table name)) then begin
      if not (Row_set.mem row current) then begin
        incr derived;
        (* every genuinely new fact counts against the tuple cap *)
        Limits.check_tuples g !derived
      end;
      Hashtbl.replace fresh name (Row_set.add row current)
    end
  in
  List.iter (fun rule -> eval_rule rule (-1) emit) p.rules;
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    (* merge fresh into tables; fresh becomes the delta *)
    Hashtbl.reset deltas;
    let any = ref false in
    Hashtbl.iter
      (fun name rows ->
        if not (Row_set.is_empty rows) then begin
          any := true;
          Hashtbl.replace deltas name rows;
          Hashtbl.replace tables name (Row_set.union (table name) rows)
        end)
      fresh;
    Hashtbl.reset fresh;
    if not !any then continue_ := false
    else
      (* semi-naïve: for every rule and every IDB literal position,
         re-evaluate with the delta at that position *)
      List.iter
        (fun rule ->
          let k = idb_literal_count rule.body in
          for pos = 0 to k - 1 do
            eval_rule rule pos emit
          done)
        p.rules
  done;
  { tables; rounds = !rounds }

let facts r pred =
  match Hashtbl.find_opt r.tables pred with
  | Some rows -> Row_set.elements rows
  | None -> raise Not_found

let fact_count r pred = List.length (facts r pred)

let iterations r = r.rounds

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)

type parser_state = { input : string; mutable pos : int; limits : Limits.t option }

let parse_error st message = Limits.parse_error ~what:"datalog" ~pos:st.pos message

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | Some '%' ->
      (* comment to end of line *)
      let rec to_eol () =
        match peek st with
        | Some '\n' | None -> ()
        | Some _ ->
            advance st;
            to_eol ()
      in
      to_eol ();
      skip_ws st
  | _ -> ()

let expect st c =
  skip_ws st;
  match peek st with
  | Some d when d = c -> advance st
  | _ -> parse_error st (Printf.sprintf "expected '%c'" c)

let looking_at st s =
  skip_ws st;
  String.length st.input - st.pos >= String.length s
  && String.sub st.input st.pos (String.length s) = s

let eat st s =
  if looking_at st s then begin
    st.pos <- st.pos + String.length s;
    true
  end
  else false

let parse_ident st =
  skip_ws st;
  let is_ident c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false
  in
  let start = st.pos in
  while (match peek st with Some c -> is_ident c | None -> false) do
    advance st
  done;
  if st.pos = start then parse_error st "expected an identifier";
  String.sub st.input start (st.pos - start)

let parse_ident_list st =
  expect st '(';
  let rec go acc =
    let id = parse_ident st in
    skip_ws st;
    match peek st with
    | Some ',' ->
        advance st;
        go (id :: acc)
    | Some ')' ->
        advance st;
        List.rev (id :: acc)
    | _ -> parse_error st "expected ',' or ')'"
  in
  go []

let parse_literal st =
  skip_ws st;
  if eat st "streq" then begin
    match parse_ident_list st with
    | [ a; b ] -> Content_eq (a, b)
    | _ -> parse_error st "streq takes two arguments"
  end
  else if eat st "adj" then begin
    match parse_ident_list st with
    | [ a; b ] -> Adjacent (a, b)
    | _ -> parse_error st "adj takes two arguments"
  end
  else if looking_at st "<" then begin
    expect st '<';
    (* formula runs to the next unescaped '>' *)
    let start = st.pos in
    let rec find_close escaped =
      match peek st with
      | None -> parse_error st "unterminated spanner formula"
      | Some '\\' when not escaped ->
          advance st;
          find_close true
      | Some '>' when not escaped -> ()
      | Some _ ->
          advance st;
          find_close false
    in
    find_close false;
    let formula_src = String.sub st.input start (st.pos - start) in
    advance st (* '>' *);
    let e =
      try Evset.of_formula ?limits:st.limits (Regex_formula.parse formula_src)
      with Spanner_fa.Regex.Parse_error (msg, p) ->
        Limits.parse_error ~what:"datalog" ~pos:(start + p)
          (Printf.sprintf "in spanner formula: %s" msg)
    in
    expect st '(';
    let rec bindings acc =
      let sv = parse_ident st in
      skip_ws st;
      let rv =
        match peek st with
        | Some '=' ->
            advance st;
            parse_ident st
        | _ -> sv
      in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          bindings ((Variable.of_string sv, rv) :: acc)
      | Some ')' ->
          advance st;
          List.rev ((Variable.of_string sv, rv) :: acc)
      | _ -> parse_error st "expected ',' or ')'"
    in
    Spanner (e, bindings [])
  end
  else begin
    let name = parse_ident st in
    Idb (name, parse_ident_list st)
  end

let parse_rule st =
  let hname = parse_ident st in
  let hvars = parse_ident_list st in
  skip_ws st;
  if not (eat st ":-") then parse_error st "expected ':-'";
  let rec body acc =
    let literal = parse_literal st in
    skip_ws st;
    match peek st with
    | Some ',' ->
        advance st;
        body (literal :: acc)
    | Some '.' ->
        advance st;
        List.rev (literal :: acc)
    | _ -> parse_error st "expected ',' or '.'"
  in
  { head = (hname, hvars); body = body [] }

let parse ?limits input =
  let st = { input; pos = 0; limits } in
  let rec rules acc =
    skip_ws st;
    if st.pos >= String.length input then List.rev acc else rules (parse_rule st :: acc)
  in
  make (rules [])
