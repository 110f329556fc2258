(* Interning runs under [lock].  [name], which runs per printed tuple,
   reads without it: [intern] fills the slot of [names] (first growing
   [names] into a copy, when full) before it publishes the new [count],
   and no slot below [count] is written again, so whoever reads an id
   below [count] reads its name. *)
type t = {
  lock : Mutex.t;
  table : (string, int) Hashtbl.t;
  mutable names : string array;
  count : int Atomic.t;
}

let create () =
  { lock = Mutex.create (); table = Hashtbl.create 16; names = [||]; count = Atomic.make 0 }

let intern t name =
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.table name with
      | Some id -> id
      | None ->
          let id = Atomic.get t.count in
          if id = Array.length t.names then
            t.names <- Array.append t.names (Array.make (max 16 id) "");
          t.names.(id) <- name;
          Hashtbl.add t.table name id;
          Atomic.set t.count (id + 1);
          id)

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table name)

let name t id =
  if id < 0 || id >= Atomic.get t.count then
    invalid_arg (Printf.sprintf "Interner.name: unknown id %d" id);
  t.names.(id)

let count t = Atomic.get t.count

let names t = Array.to_list (Array.sub t.names 0 (count t))
