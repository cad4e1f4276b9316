open Spitz_crypto
open Spitz_storage

(* The virtual cell store (paper section 5): data lives as immutable,
   content-addressed cells, each version named by its universal key
   (column, pk, ts, value hash). One B+-tree entry per cell, keyed
   [column \000 pk], holds the cell's versions newest first — the layout of
   the immutable KVS — so a new version of a cell is one cons. Values are
   deduplicated by the object store. *)

type version = {
  ts : int;
  vhash : Hash.t; (* [Hash.null] for a tombstone *)
  addr : Hash.t;
  (* storage address of the value: the value hash for a value stored raw,
     the descriptor address of a chunked blob, [Hash.null] for a tombstone *)
}

(* Newest first in (ts, value hash) order, the universal keys' order. *)
type cell = { mutable versions : version list }

type t = {
  store : Object_store.t;
  index : cell Spitz_index.Bptree.t;
  lock : Mutex.t;
  (* a commit inserts while readers look up; the B+-tree is not safe for
     that, so both hold this lock, and values are resolved after it *)
}

let create ?store () =
  let store = match store with Some s -> s | None -> Object_store.create () in
  { store; index = Spitz_index.Bptree.create (); lock = Mutex.create () }

let store t = t.store

let cell_key ~column ~pk = column ^ "\000" ^ pk

(* Insert [v] in order; a version with the same (ts, value hash) is the same
   universal key, so it is replaced. *)
let rec insert_version v = function
  | [] -> [ v ]
  | x :: rest as versions ->
    let c = match Int.compare v.ts x.ts with 0 -> Hash.compare v.vhash x.vhash | c -> c in
    if c > 0 then v :: versions else if c = 0 then v :: rest else x :: insert_version v rest

let add_version t ~column ~pk v =
  if String.contains column '\000' then invalid_arg "Universal_key: column contains NUL";
  if String.contains pk '\000' then invalid_arg "Universal_key: pk contains NUL";
  let key = cell_key ~column ~pk in
  Mutex.protect t.lock (fun () ->
      match Spitz_index.Bptree.get t.index key with
      | Some cell -> cell.versions <- insert_version v cell.versions
      | None -> Spitz_index.Bptree.insert t.index key { versions = [ v ] })

(* Index a cell version whose value is already stored at [addr] — a reopen
   restoring cells from a snapshot whose store holds their values. *)
let add_cell t ~column ~pk ~ts ~vhash addr = add_version t ~column ~pk { ts; vhash; addr }

let write_cell t ~column ~pk ~ts ?vhash value =
  let vhash = match vhash with Some h -> h | None -> Hash.of_string value in
  add_cell t ~column ~pk ~ts ~vhash (Object_store.put_blob ~hash:vhash t.store value)

(* A delete is one more immutable cell version: a tombstone whose value
   address is [Hash.null]. Read paths below treat it as absence, so older
   versions stay reachable by timestamp while the latest state drops the
   cell. *)
let delete_cell t ~column ~pk ~ts =
  add_version t ~column ~pk { ts; vhash = Hash.null; addr = Hash.null }

let versions_of t ~column ~pk =
  Mutex.protect t.lock (fun () ->
      match Spitz_index.Bptree.get t.index (cell_key ~column ~pk) with
      | Some cell -> cell.versions
      | None -> [])

let value t addr = if Hash.is_null addr then None else Some (Object_store.get_blob_exn t.store addr)

let read_value ?(ts = max_int) t ~column ~pk =
  match List.find_opt (fun v -> v.ts <= ts) (versions_of t ~column ~pk) with
  | Some v -> value t v.addr
  | None -> None

(* Every version of one cell, oldest first. *)
let versions t ~column ~pk =
  List.fold_left
    (fun acc v ->
       match value t v.addr with
       | Some data -> ({ Universal_key.column; pk; ts = v.ts; vhash = v.vhash }, data) :: acc
       | None -> acc)
    [] (versions_of t ~column ~pk)

let range_latest_values t ~column ~pk_lo ~pk_hi =
  let pk_start = String.length column + 1 in
  let latest =
    Mutex.protect t.lock (fun () ->
        Spitz_index.Bptree.fold_range t.index ~lo:(cell_key ~column ~pk:pk_lo)
          ~hi:(cell_key ~column ~pk:pk_hi)
          (fun key cell acc ->
             match cell.versions with
             | v :: _ when not (Hash.is_null v.addr) ->
               (String.sub key pk_start (String.length key - pk_start), v.addr) :: acc
             | _ -> acc)
          [])
  in
  List.rev_map (fun (pk, addr) -> (pk, Object_store.get_blob_exn t.store addr)) latest

let cell_count t =
  Mutex.protect t.lock (fun () ->
      let n = ref 0 in
      Spitz_index.Bptree.iter t.index (fun _ cell -> n := !n + List.length cell.versions);
      !n)
