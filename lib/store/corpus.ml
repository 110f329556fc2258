module Limits = Spanner_util.Limits
module Checked = Spanner_util.Checked
module Slp = Spanner_slp.Slp
module Doc_db = Spanner_slp.Doc_db

let corrupt msg = Limits.corrupt ~what:"SLPMF1" msg
let corruptf fmt = Printf.ksprintf corrupt fmt

type t = {
  shards : Arena.t array;
  docs : (string * int * Slp.id) array;
  table : (string, int * Slp.id) Hashtbl.t;
}

let of_arenas arenas =
  let table = Hashtbl.create 64 in
  let docs = ref [] in
  Array.iteri
    (fun si a ->
      Array.iter
        (fun (name, root) ->
          if Hashtbl.mem table name then
            corruptf "overlapping shards: document %S appears in more than one shard" name;
          Hashtbl.add table name (si, root);
          docs := (name, si, root) :: !docs)
        (Arena.docs a))
    arenas;
  { shards = arenas; docs = Array.of_list (List.rev !docs); table }

let sniff path =
  let ic =
    try open_in_bin path
    with Sys_error m -> corrupt ("cannot open " ^ m)
  in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = min 8 (in_channel_length ic) in
      really_input_string ic n)

let open_path path =
  let head = sniff path in
  if Manifest.looks_like head then begin
    let dir = Filename.dirname path in
    let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
    let shard_paths = Manifest.read_file path in
    of_arenas (Array.of_list (List.map (fun p -> Arena.openfile (resolve p)) shard_paths))
  end
  else of_arenas [| Arena.openfile path |]

(* ------------------------------------------------------------------ *)
(* Packing *)

let pack db ~shards path =
  if shards < 1 then invalid_arg "Corpus.pack: need at least one shard";
  let store = Doc_db.store db in
  let docs =
    List.map (fun name -> (name, Doc_db.find db name)) (Doc_db.names db)
  in
  if shards = 1 then begin
    Arena.write_file store docs path;
    [ path ]
  end
  else begin
    (* round-robin assignment: document i goes to shard (i mod N) *)
    let buckets = Array.make shards [] in
    List.iteri (fun i doc -> buckets.(i mod shards) <- doc :: buckets.(i mod shards)) docs;
    let shard_files =
      Array.to_list
        (Array.mapi
           (fun si bucket ->
             let f = Printf.sprintf "%s.%d.slpar" path si in
             Arena.write_file store (List.rev bucket) f;
             f)
           buckets)
    in
    Manifest.write_file (List.map Filename.basename shard_files) path;
    shard_files @ [ path ]
  end

(* ------------------------------------------------------------------ *)
(* Access *)

let shards t = t.shards
let shard_count t = Array.length t.shards
let docs t = Array.copy t.docs
let find t name = Hashtbl.find_opt t.table name
let doc_count t = Array.length t.docs

let sum f t = Array.fold_left (fun acc a -> acc + f a) 0 t.shards

let node_count = sum Arena.node_count
let total_len t =
  Array.fold_left
    (fun acc a -> Checked.add ~what:"document length" acc (Arena.total_len a))
    0 t.shards
let mapped_bytes = sum Arena.mapped_bytes
let resident_bytes = sum Arena.resident_bytes
