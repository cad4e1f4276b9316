(* Reference single-key insert for the Merkle B+-tree: the store-backed
   path copy that [Spitz_adt.Merkle_bptree] ran before it applied a block's
   writes as one batch. Every insert loads its root-to-leaf path from the
   store and saves a new copy of each node on it, so a fold over a batch
   stores every intermediate version. Kept in the test tree as the
   differential oracle for [Merkle_bptree.insert_batch]; nothing outside the
   tests links it. It edits nodes as lists, with a linear child scan, so it
   shares no navigation or editing code with the array-backed batch. *)

open Spitz_adt
module Hash = Spitz_crypto.Hash

type node = Leaf of (string * string) list | Internal of (string * Hash.t) list

let load store h =
  match Kv_node.load store h with
  | Kv_node.Leaf entries -> Leaf (Array.to_list entries)
  | Kv_node.Internal children -> Internal (Array.to_list children)

let save store = function
  | Leaf entries -> Kv_node.save store (Kv_node.Leaf (Array.of_list entries))
  | Internal children -> Kv_node.save store (Kv_node.Internal (Array.of_list children))

let min_key = function
  | Leaf ((k, _) :: _) | Internal ((k, _) :: _) -> k
  | Leaf [] | Internal [] -> invalid_arg "Oracle_bptree.min_key: empty node"

(* The last separator <= key, or the first child. *)
let child_index children key =
  let rec go i best = function
    | [] -> best
    | (sep, _) :: rest -> if String.compare sep key <= 0 then go (i + 1) i rest else best
  in
  go 0 0 children

let max_entries = 16

type t = { store : Spitz_storage.Object_store.t; root : Hash.t option; count : int }

let create store = { store; root = None; count = 0 }
let root_digest t = match t.root with Some h -> h | None -> Hash.null

let rec insert_entry key value = function
  | [] -> ([ (key, value) ], true)
  | (k, v) :: rest as all ->
    let c = String.compare key k in
    if c < 0 then ((key, value) :: all, true)
    else if c = 0 then ((key, value) :: rest, false)
    else begin
      let rest', grew = insert_entry key value rest in
      ((k, v) :: rest', grew)
    end

let split_list l =
  let n = List.length l in
  let rec take i = function
    | [] -> ([], [])
    | x :: rest ->
      if i = 0 then ([], x :: rest)
      else begin
        let left, right = take (i - 1) rest in
        (x :: left, right)
      end
  in
  take (n / 2) l

(* Returns one or two (min_key, hash) links replacing the modified child. *)
let rec insert_at t h key value =
  match load t.store h with
  | Leaf entries ->
    let entries', grew = insert_entry key value entries in
    if List.length entries' <= max_entries then
      let node = Leaf entries' in
      ([ (min_key node, save t.store node) ], grew)
    else begin
      let left, right = split_list entries' in
      let nl = Leaf left and nr = Leaf right in
      ([ (min_key nl, save t.store nl); (min_key nr, save t.store nr) ], grew)
    end
  | Internal children ->
    let idx = child_index children key in
    let _, child_hash = List.nth children idx in
    let replacements, grew = insert_at t child_hash key value in
    let children' =
      List.concat
        (List.mapi (fun i (k, ch) -> if i = idx then replacements else [ (k, ch) ]) children)
    in
    if List.length children' <= max_entries then
      let node = Internal children' in
      ([ (min_key node, save t.store node) ], grew)
    else begin
      let left, right = split_list children' in
      let nl = Internal left and nr = Internal right in
      ([ (min_key nl, save t.store nl); (min_key nr, save t.store nr) ], grew)
    end

let insert t key value =
  match t.root with
  | None ->
    let node = Leaf [ (key, value) ] in
    { t with root = Some (save t.store node); count = 1 }
  | Some h ->
    let links, grew = insert_at t h key value in
    let root =
      match links with
      | [ (_, h') ] -> h'
      | links -> save t.store (Internal links)
    in
    { t with root = Some root; count = (if grew then t.count + 1 else t.count) }

let insert_all t kvs = List.fold_left (fun t (k, v) -> insert t k v) t kvs
