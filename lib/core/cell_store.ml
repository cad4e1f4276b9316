open Spitz_crypto
open Spitz_storage

(* The virtual cell store (paper section 5): data lives as immutable,
   content-addressed cells, each version named by (column, pk, ts, value
   hash) — the paper's universal key. One hash-table entry per cell, keyed
   [column \000 pk], holds the cell's versions newest first — the layout of
   the immutable KVS — so a new version of a cell is one cons. Values are
   deduplicated by the object store. The table answers point reads only: an
   ordered scan of a column reads the ledger's head index ([Db.range]),
   which keeps keys sorted already. *)

type version = {
  ts : int;
  vhash : Hash.t; (* [Hash.null] for a tombstone *)
  addr : Hash.t;
  (* storage address of the value: the value hash for a value stored raw,
     the descriptor address of a chunked blob, [Hash.null] for a tombstone *)
}

(* Newest first in (ts, value hash) order. *)
type cell = { mutable versions : version list }

module Cells = Hashtbl.Make (struct
    type t = string
    let equal = String.equal
    let hash = Hashtbl.hash
  end)

type t = {
  store : Object_store.t;
  cells : cell Cells.t;
  lock : Mutex.t;
  (* a commit inserts while readers look up, and a [Hashtbl] resize racing
     a lookup can misread under OCaml 5, so both hold this lock; values are
     resolved after it *)
}

let create ?(size = 1024) ?store () =
  let store = match store with Some s -> s | None -> Object_store.create () in
  { store; cells = Cells.create size; lock = Mutex.create () }

let store t = t.store

(* [column \000 pk] in one allocation. *)
let cell_key ~column ~pk =
  let c = String.length column in
  let key = Bytes.create (c + 1 + String.length pk) in
  Bytes.blit_string column 0 key 0 c;
  Bytes.set key c '\000';
  Bytes.blit_string pk 0 key (c + 1) (String.length pk);
  Bytes.unsafe_to_string key

(* Insert [v] in order; a version with the same (ts, value hash) names the
   same version, so it is replaced. *)
let rec insert_version v = function
  | [] -> [ v ]
  | x :: rest as versions ->
    let c = match Int.compare v.ts x.ts with 0 -> Hash.compare v.vhash x.vhash | c -> c in
    if c > 0 then v :: versions else if c = 0 then v :: rest else x :: insert_version v rest

(* The key of a cell a write adds to. A read of a name with NUL in it finds
   nothing; a write of one is refused. *)
let write_key ~column ~pk =
  if String.contains column '\000' then invalid_arg "Cell_store: column contains NUL";
  if String.contains pk '\000' then invalid_arg "Cell_store: pk contains NUL";
  cell_key ~column ~pk

let add_version t ~column ~pk v =
  let key = write_key ~column ~pk in
  Mutex.protect t.lock (fun () ->
      match Cells.find_opt t.cells key with
      | Some cell -> cell.versions <- insert_version v cell.versions
      | None -> Cells.add t.cells key { versions = [ v ] })

let write_cell t ~column ~pk ~ts ?vhash value =
  let vhash = match vhash with Some h -> h | None -> Hash.of_string value in
  add_version t ~column ~pk { ts; vhash; addr = Object_store.put_blob ~hash:vhash t.store value }

(* A delete is one more immutable cell version: a tombstone whose value
   address is [Hash.null]. Read paths below treat it as absence, so older
   versions stay reachable by timestamp while the latest state drops the
   cell. *)
let delete_cell t ~column ~pk ~ts =
  add_version t ~column ~pk { ts; vhash = Hash.null; addr = Hash.null }

(* A reopen walks each block's writes last to first, so the first write of
   a cell it meets at [ts] is the block's last one and lands; a cell whose
   newest version is already at [ts] keeps it. Heights only grow, so the
   new version is the newest and goes on the front. *)
let restore_version t ~column ~pk ~ts resolve =
  let key = write_key ~column ~pk in
  Mutex.protect t.lock (fun () ->
      let cell = Cells.find_opt t.cells key in
      match cell with
      | Some { versions = v :: _ } when v.ts >= ts -> ()
      | _ ->
        let vhash, addr =
          match resolve () with Some (vhash, addr) -> (vhash, addr) | None -> (Hash.null, Hash.null)
        in
        let v = { ts; vhash; addr } in
        (match cell with
         | Some cell -> cell.versions <- v :: cell.versions
         | None -> Cells.add t.cells key { versions = [ v ] }))

let versions_of t ~column ~pk =
  let key = cell_key ~column ~pk in
  Mutex.protect t.lock (fun () ->
      match Cells.find_opt t.cells key with Some cell -> cell.versions | None -> [])

let newest_ts t ~column ~pk =
  match versions_of t ~column ~pk with v :: _ -> Some v.ts | [] -> None

let value t addr = if Hash.is_null addr then None else Some (Object_store.get_blob_exn t.store addr)

let read_value ?(ts = max_int) t ~column ~pk =
  match List.find_opt (fun v -> v.ts <= ts) (versions_of t ~column ~pk) with
  | Some v -> value t v.addr
  | None -> None

(* Every version of one cell, oldest first. *)
let versions t ~column ~pk =
  List.fold_left
    (fun acc v -> match value t v.addr with Some data -> (v.ts, data) :: acc | None -> acc)
    [] (versions_of t ~column ~pk)

let cell_count t =
  Mutex.protect t.lock (fun () ->
      Cells.fold (fun _ cell n -> n + List.length cell.versions) t.cells 0)
