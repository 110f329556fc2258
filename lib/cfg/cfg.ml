open Spanner_core
module Charset = Spanner_fa.Charset
module Vec = Spanner_util.Vec

type nt = int

type symbol = Term of Charset.t | Mark of Marker.t | Nt of nt

type rule = { lhs : nt; rhs : symbol list }

type t = { start : nt; rules : rule list; names : string array }

module Builder = struct
  type b = { names : string Vec.t; mutable brules : rule list }

  type t = b

  let create () = { names = Vec.create (); brules = [] }

  let fresh b name = Vec.push b.names name

  let add_rule b lhs rhs = b.brules <- { lhs; rhs } :: b.brules

  let finish b ~start =
    let count = Vec.length b.names in
    let check_nt x =
      if x < 0 || x >= count then
        invalid_arg (Printf.sprintf "Cfg.Builder.finish: unknown nonterminal %d" x)
    in
    check_nt start;
    List.iter
      (fun { lhs; rhs } ->
        check_nt lhs;
        List.iter (function Nt x -> check_nt x | Term _ | Mark _ -> ()) rhs)
      b.brules;
    { start; rules = List.rev b.brules; names = Vec.to_array b.names }
end

let start g = g.start

let rules g = g.rules

let nt_count g = Array.length g.names

let nt_name g x = g.names.(x)

let vars g =
  List.fold_left
    (fun acc { rhs; _ } ->
      List.fold_left
        (fun acc symbol ->
          match symbol with
          | Mark m -> Variable.Set.add (Marker.variable m) acc
          | Term _ | Nt _ -> acc)
        acc rhs)
    Variable.Set.empty g.rules

(* ------------------------------------------------------------------ *)
(* Regular embedding                                                   *)

let of_formula formula =
  (match Regex_formula.functionality formula with
  | Regex_formula.Ill_formed reason -> invalid_arg ("Cfg.of_formula: ill-formed formula: " ^ reason)
  | Regex_formula.Total | Regex_formula.Schemaless -> ());
  let b = Builder.create () in
  let rule = Builder.add_rule b in
  (* Each sub-formula becomes one nonterminal. *)
  let wire a : nt Spanner_fa.Regex.Node.t -> unit = function
    | Empty -> ()
    | Epsilon -> rule a []
    | Chars cs -> rule a [ Term cs ]
    | Bind (x, i) ->
        let x = Variable.of_string x in
        rule a [ Mark (Marker.Open x); Nt i; Mark (Marker.Close x) ]
    | Concat (n1, n2) -> rule a [ Nt n1; Nt n2 ]
    | Alt (n1, n2) ->
        rule a [ Nt n1 ];
        rule a [ Nt n2 ]
    | Star i ->
        rule a [];
        rule a [ Nt i; Nt a ]
    | Plus i ->
        rule a [ Nt i ];
        rule a [ Nt i; Nt a ]
    | Opt i ->
        rule a [];
        rule a [ Nt i ]
    | Ref _ -> invalid_arg "Cfg.of_formula: reference"
  in
  let start =
    Regex_formula.fold (Spanner_fa.Regex.walk ~fresh:(fun () -> Builder.fresh b "f") ~wire) formula ()
  in
  Builder.finish b ~start

(* ------------------------------------------------------------------ *)
(* Binarization                                                        *)

type binary = {
  bstart : nt;
  bnt_count : int;
  pairs : (nt * nt * nt) list;
  units : (nt * nt) list;
  terms : (nt * Charset.t) list;
  marks : (nt * Marker.t) list;
  nulls : nt list;
}

let binarize g =
  let counter = ref (nt_count g) in
  let fresh () =
    let x = !counter in
    incr counter;
    x
  in
  let pairs = ref [] and units = ref [] and terms = ref [] and marks = ref [] and nulls = ref [] in
  (* Wrap a symbol as a nonterminal. *)
  let nt_of_symbol = function
    | Nt x -> x
    | Term cs ->
        let x = fresh () in
        terms := (x, cs) :: !terms;
        x
    | Mark m ->
        let x = fresh () in
        marks := (x, m) :: !marks;
        x
  in
  List.iter
    (fun { lhs; rhs } ->
      match rhs with
      | [] -> nulls := lhs :: !nulls
      | [ Nt x ] -> units := (lhs, x) :: !units
      | [ Term cs ] -> terms := (lhs, cs) :: !terms
      | [ Mark m ] -> marks := (lhs, m) :: !marks
      | first :: rest ->
          (* fold the tail into a right-leaning chain *)
          let rec chain lhs symbols =
            match symbols with
            | [ s1; s2 ] -> pairs := (lhs, nt_of_symbol s1, nt_of_symbol s2) :: !pairs
            | s1 :: rest ->
                let cont = fresh () in
                pairs := (lhs, nt_of_symbol s1, cont) :: !pairs;
                chain cont rest
            | [] -> assert false
          in
          chain lhs (first :: rest))
    g.rules;
  {
    bstart = g.start;
    bnt_count = !counter;
    pairs = !pairs;
    units = !units;
    terms = !terms;
    marks = !marks;
    nulls = !nulls;
  }

let pp ppf g =
  let pp_symbol ppf = function
    | Term cs -> Charset.pp ppf cs
    | Mark m -> Marker.pp ppf m
    | Nt x -> Format.fprintf ppf "<%s%d>" g.names.(x) x
  in
  List.iter
    (fun { lhs; rhs } ->
      Format.fprintf ppf "<%s%d> → %a@." g.names.(lhs) lhs
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") pp_symbol)
        rhs)
    g.rules
