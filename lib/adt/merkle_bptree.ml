open Spitz_crypto
open Spitz_storage
open Kv_node

(* Merkle-augmented B+-tree: a persistent B+-tree whose nodes are
   content-addressed, so (a) the root hash commits to the whole contents and
   (b) successive versions share every untouched node. Proofs are the
   serialized nodes the query traversal itself visits, which is why Spitz
   gets proofs "for free" during query processing (paper section 6.2.1). *)

let name = "merkle-bptree"

let max_entries = 16 (* per node; split when exceeded *)

type t = {
  store : Object_store.t;
  root : Hash.t option;
  count : int;
}

let create store = { store; root = None; count = 0 }

let at_root store root ~count =
  if Hash.is_null root then { store; root = None; count = 0 }
  else { store; root = Some root; count }
let store t = t.store
let root_digest t = match t.root with Some h -> h | None -> Hash.null
let cardinal t = t.count

(* Insert into the entries of a leaf, replacing an equal key. Returns the new
   list and whether the cardinality grew. *)
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

(* A batch rewrites nodes in memory and stores only their final versions.
   A child link is either a node already in the store or a node this batch
   rewrote and has not saved yet. *)
type pending =
  | P_leaf of (string * string) list
  | P_internal of (string * link) list

and link = Stored of Hash.t | Dirty of pending

let expand store = function
  | Dirty node -> node
  | Stored h ->
    (match load store h with
     | Leaf entries -> P_leaf entries
     | Internal children -> P_internal (List.map (fun (k, h) -> (k, Stored h)) children))

(* One or two (min_key, link) pairs holding [l]: split when it overflows. *)
let links_of mk l =
  if List.length l <= max_entries then [ (fst (List.hd l), Dirty (mk l)) ]
  else begin
    let left, right = split_list l in
    [ (fst (List.hd left), Dirty (mk left)); (fst (List.hd right), Dirty (mk right)) ]
  end

(* Returns the links replacing the modified child, and whether the
   cardinality grew. The splits depend only on keys and entry counts, so a
   batch ends in exactly the tree a fold of single-key inserts builds. *)
let rec insert_in store link key value =
  match expand store link with
  | P_leaf entries ->
    let entries', grew = insert_entry key value entries in
    (links_of (fun e -> P_leaf e) entries', grew)
  | P_internal children ->
    let idx = child_index children key in
    let replacements, grew = insert_in store (snd (List.nth children idx)) key value in
    let children' =
      List.concat
        (List.mapi (fun i (k, ch) -> if i = idx then replacements else [ (k, ch) ]) children)
    in
    (links_of (fun c -> P_internal c) children', grew)

(* Save every rewritten node once, children before parents. *)
let rec flush store = function
  | Stored h -> h
  | Dirty (P_leaf entries) -> save store (Leaf entries)
  | Dirty (P_internal children) ->
    save store (Internal (List.map (fun (k, l) -> (k, flush store l)) children))

let insert_batch t kvs =
  let step (root, count) (key, value) =
    match root with
    | None -> (Some (Dirty (P_leaf [ (key, value) ])), 1)
    | Some link ->
      let links, grew = insert_in t.store link key value in
      let root = match links with [ (_, l) ] -> l | links -> Dirty (P_internal links) in
      (Some root, if grew then count + 1 else count)
  in
  let root, count =
    List.fold_left step (Option.map (fun h -> Stored h) t.root, t.count) kvs
  in
  { t with root = Option.map (flush t.store) root; count }

let insert t key value = insert_batch t [ (key, value) ]

let get t key = Kv_node.get t.store t.root key
let get_with_proof t key = Kv_node.get_with_proof t.store t.root key
let prove_batch t keys = Kv_node.prove_batch t.store t.root keys
let range t ~lo ~hi = Kv_node.range t.store t.root ~lo ~hi
let range_with_proof t ~lo ~hi = Kv_node.range_with_proof t.store t.root ~lo ~hi
let split_points t ~lo ~hi ~parts = Kv_node.split_points t.store t.root ~lo ~hi ~parts
let iter t f = Kv_node.iter t.store t.root f

let verify_get = Kv_node.verify_get
let verify_get_batch = Kv_node.verify_get_batch
let verify_range = Kv_node.verify_range
let extract_range = Kv_node.extract_range
let iter_nodes = Kv_node.iter_nodes
