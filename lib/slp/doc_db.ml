module Vec = Spanner_util.Vec

type t = { store : Slp.store; names : string Vec.t; table : (string, Slp.id) Hashtbl.t }

let create () = { store = Slp.create_store (); names = Vec.create (); table = Hashtbl.create 16 }

let store db = db.store

let add db name id =
  if not (Hashtbl.mem db.table name) then ignore (Vec.push db.names name);
  Hashtbl.replace db.table name id

let add_string db name s =
  let id = Balance.rebalance db.store (Builder.lz78 db.store s) in
  add db name id;
  id

let find db name = Hashtbl.find db.table name

let find_opt db name = Hashtbl.find_opt db.table name

let names db = Vec.to_list db.names

let total_len db =
  List.fold_left (fun acc name -> acc + Slp.len db.store (find db name)) 0 (names db)

let freeze db = Slp.freeze db.store

let compressed_size db =
  let seen = Hashtbl.create 256 in
  let count = ref 0 in
  List.iter
    (fun name ->
      Slp.iter_reachable db.store (find db name) (fun id ->
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.add seen id ();
            incr count
          end))
    (names db);
  !count
