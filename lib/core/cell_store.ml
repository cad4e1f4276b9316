open Spitz_crypto
open Spitz_storage

(* The virtual cell store (paper section 5): data lives as immutable,
   content-addressed cells keyed by universal key. One B+-tree over the
   encoded universal keys serves point lookups, version scans, and column
   ranges; values are deduplicated by the object store. *)

type t = {
  store : Object_store.t;
  index : Hash.t Spitz_index.Bptree.t;
  (* encoded universal key -> storage address of the value. For values small
     enough to store raw this equals the universal key's value hash; chunked
     blobs live under their descriptor address. *)
}

let create ?store () =
  let store = match store with Some s -> s | None -> Object_store.create () in
  { store; index = Spitz_index.Bptree.create () }

let store t = t.store

(* Index a cell version whose value is already stored at [addr] — a reopen
   restoring cells from a snapshot whose store holds their values. *)
let add_cell t ~column ~pk ~ts ~vhash addr =
  let ukey = Universal_key.make ~column ~pk ~ts ~vhash in
  Spitz_index.Bptree.insert t.index (Universal_key.encode ukey) addr;
  ukey

let write_cell t ~column ~pk ~ts ?vhash value =
  let vhash = match vhash with Some h -> h | None -> Hash.of_string value in
  add_cell t ~column ~pk ~ts ~vhash (Object_store.put_blob ~hash:vhash t.store value)

(* A delete is one more immutable cell version: a tombstone whose value
   address is [Hash.null]. Read paths below treat it as absence, so older
   versions stay reachable by timestamp while the latest state drops the
   cell. *)
let delete_cell t ~column ~pk ~ts =
  let ukey = Universal_key.make ~column ~pk ~ts ~vhash:Hash.null in
  Spitz_index.Bptree.insert t.index (Universal_key.encode ukey) Hash.null;
  ukey

(* Newest cell version at or below [ts] ([max_int] = latest). *)
let read_cell ?(ts = max_int) t ~column ~pk =
  let lo, hi = Universal_key.cell_bounds ~column ~pk in
  let best =
    Spitz_index.Bptree.fold_range t.index ~lo ~hi
      (fun ekey vhash acc ->
         match Universal_key.decode ekey with
         | Some uk when uk.Universal_key.ts <= ts -> Some (uk, vhash)
         | _ -> acc)
      None
  in
  match best with
  | Some (uk, vhash) when not (Hash.is_null vhash) ->
    Some (uk, Object_store.get_blob_exn t.store vhash)
  | _ -> None

(* Hot path for point reads: the prefix scan is in timestamp order, so the
   newest qualifying version is the last one visited; no key decoding. *)
let read_value ?ts t ~column ~pk =
  let prefix = Universal_key.cell_prefix ~column ~pk in
  let hi = prefix ^ "\xff" in
  let best =
    match ts with
    | None ->
      Spitz_index.Bptree.fold_range t.index ~lo:prefix ~hi (fun _ vhash _ -> Some vhash) None
    | Some bound ->
      let prefix_len = String.length prefix in
      Spitz_index.Bptree.fold_range t.index ~lo:prefix ~hi
        (fun ekey vhash acc ->
           if Universal_key.ts_of_encoded ~prefix_len ekey <= bound then Some vhash else acc)
        None
  in
  match best with
  | Some vhash when not (Hash.is_null vhash) -> Some (Object_store.get_blob_exn t.store vhash)
  | _ -> None

(* Every version of one cell, oldest first. *)
let versions t ~column ~pk =
  let lo, hi = Universal_key.cell_bounds ~column ~pk in
  List.rev
    (Spitz_index.Bptree.fold_range t.index ~lo ~hi
       (fun ekey vhash acc ->
          match Universal_key.decode ekey with
          | Some uk when not (Hash.is_null vhash) ->
            (uk, Object_store.get_blob_exn t.store vhash) :: acc
          | _ -> acc)
       [])

(* Latest version of each cell of [column] with pk in [pk_lo, pk_hi]. *)
let range_latest t ~column ~pk_lo ~pk_hi =
  let lo, hi = Universal_key.column_bounds ~column ~pk_lo ~pk_hi in
  let out = ref [] in
  (* the scan is in (pk, ts) order: the last version of each pk wins *)
  Spitz_index.Bptree.fold_range t.index ~lo ~hi
    (fun ekey vhash () ->
       match Universal_key.decode ekey with
       | Some uk ->
         (match !out with
          | (prev, _) :: rest when String.equal prev.Universal_key.pk uk.Universal_key.pk ->
            out := (uk, vhash) :: rest
          | _ -> out := (uk, vhash) :: !out)
       | None -> ())
    ();
  List.filter_map
    (fun (uk, vhash) ->
       if Hash.is_null vhash then None
       else Some (uk, Object_store.get_blob_exn t.store vhash))
    (List.rev !out)

(* Hot path for range scans: pk extracted positionally, last version of each
   pk wins, values fetched once per pk. *)
let range_latest_values t ~column ~pk_lo ~pk_hi =
  let lo, hi = Universal_key.column_bounds ~column ~pk_lo ~pk_hi in
  let pk_start = String.length column + 1 in
  let out = ref [] in
  Spitz_index.Bptree.fold_range t.index ~lo ~hi
    (fun ekey vhash () ->
       let pk_end = String.index_from ekey pk_start '\x00' in
       let pk = String.sub ekey pk_start (pk_end - pk_start) in
       match !out with
       | (prev, _) :: rest when String.equal prev pk -> out := (pk, vhash) :: rest
       | _ -> out := (pk, vhash) :: !out)
    ();
  List.filter_map
    (fun (pk, vhash) ->
       if Hash.is_null vhash then None
       else Some (pk, Object_store.get_blob_exn t.store vhash))
    (List.rev !out)

let cell_count t = Spitz_index.Bptree.cardinal t.index
