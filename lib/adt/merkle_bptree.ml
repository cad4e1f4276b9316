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

(* A batch rewrites nodes in memory and stores only their final versions.
   A child link is either a node already in the store or a node this batch
   rewrote and has not saved yet. A rewritten node is a copy the batch owns:
   its first [len] slots are its entries, edited in place, with room for the
   one extra entry that makes it split. Only splits allocate a new node. *)
type 'a slots = { mutable len : int; items : 'a array }

type pending =
  | P_leaf of (string * string) slots
  | P_internal of (string * link) slots

and link = Stored of Hash.t | Dirty of pending

let slots_of dummy items =
  let n = Array.length items in
  let a = Array.make (max_entries + 1) dummy in
  Array.blit items 0 a 0 n;
  { len = n; items = a }

let no_entry = ("", "")
let no_link = ("", Stored Hash.null)

(* The batch's own copy of a stored node — the decoded node may be shared
   with readers and is never edited. The batch supersedes it, so it leaves
   the node cache: the cache keeps the head's nodes, not every version's.
   Its address is added to [superseded], the batch's report of the stored
   nodes it rewrote. *)
let expand store superseded h =
  superseded := h :: !superseded;
  match take store h with
  | Leaf entries -> P_leaf (slots_of no_entry entries)
  | Internal children ->
    P_internal (slots_of no_link (Array.map (fun (k, h) -> (k, Stored h)) children))

let min_pending = function
  | P_leaf s -> fst s.items.(0)
  | P_internal s -> fst s.items.(0)

let insert_slot s i x =
  Array.blit s.items i s.items (i + 1) (s.len - i);
  s.items.(i) <- x;
  s.len <- s.len + 1

(* Split an overflowing node as the per-key path copy does: the left half
   keeps the first [len / 2] entries, the rest move to a new right node. *)
let split_slots dummy s =
  let half = s.len / 2 in
  let right = slots_of dummy (Array.sub s.items half (s.len - half)) in
  Array.fill s.items half (s.len - half) dummy;
  s.len <- half;
  right

(* Insert into a dirty node in place; returns the new right sibling when the
   node split. Sets [grew] when the key is new. The splits depend only on
   keys and entry counts, so a batch ends in exactly the tree a fold of
   single-key inserts builds. *)
let rec insert_in store superseded node key value grew =
  match node with
  | P_leaf s ->
    let i = count_le s.items s.len key in
    if i > 0 && String.equal (fst s.items.(i - 1)) key then s.items.(i - 1) <- (key, value)
    else begin
      insert_slot s i (key, value);
      grew := true
    end;
    if s.len > max_entries then Some (P_leaf (split_slots no_entry s)) else None
  | P_internal s ->
    let idx = child_index_sub s.items s.len key in
    let child =
      match snd s.items.(idx) with Dirty c -> c | Stored h -> expand store superseded h
    in
    let right = insert_in store superseded child key value grew in
    (* relink a freshly expanded child; a key below the subtree's minimum
       also lowers its separator *)
    (match s.items.(idx) with
     | sep, Dirty c when c == child && String.equal sep (min_pending child) -> ()
     | _ -> s.items.(idx) <- (min_pending child, Dirty child));
    (match right with
     | Some r -> insert_slot s (idx + 1) (min_pending r, Dirty r)
     | None -> ());
    if s.len > max_entries then Some (P_internal (split_slots no_link s)) else None

(* Save every rewritten node once, children before parents, each encoded
   into the batch's one writer. Internal nodes are cached as they are saved,
   since the next batch walks them again; a leaf is cached only once a
   reader decodes it. *)
let rec flush ?epoch store buf = function
  | Stored h -> h
  | Dirty (P_leaf s) -> save_with ?epoch buf store (Leaf (Array.sub s.items 0 s.len))
  | Dirty (P_internal s) ->
    let children =
      Array.init s.len (fun i -> let k, l = s.items.(i) in (k, flush ?epoch store buf l))
    in
    save_cached ?epoch buf store (Internal children)

(* The batch, and the stored nodes it rewrote. A path-copying tree holds
   each node in one contiguous run of versions, so a rewritten node is in
   [t] and — unless the batch rewrote it to the same bytes — in no later
   version until some later batch creates it again. *)
let batch ?epoch t kvs =
  let superseded = ref [] in
  let grew = ref false in
  let step (root, count) (key, value) =
    grew := false;
    let root =
      match root with
      | None ->
        grew := true;
        P_leaf (slots_of no_entry [| (key, value) |])
      | Some node ->
        (match insert_in t.store superseded node key value grew with
         | None -> node
         | Some right ->
           P_internal
             (slots_of no_link
                [| (min_pending node, Dirty node); (min_pending right, Dirty right) |]))
    in
    (Some root, if !grew then count + 1 else count)
  in
  match kvs with
  | [] -> (t, [])
  | kvs ->
    let root, count =
      List.fold_left step (Option.map (expand t.store superseded) t.root, t.count) kvs
    in
    let buf = Wire.writer ~size:1024 () in
    ({ t with root = Option.map (fun r -> flush ?epoch t.store buf (Dirty r)) root; count },
     !superseded)

let insert_batch t kvs = fst (batch t kvs)

let insert_batch_at t ~epoch kvs = batch ~epoch t kvs

let insert t key value = insert_batch t [ (key, value) ]

let get t key = Kv_node.get t.store t.root key
let get_with_proof t key = Kv_node.get_with_proof t.store t.root key
let prove_batch t keys = Kv_node.prove_batch t.store t.root keys
let range t ~lo ~hi = Kv_node.range t.store t.root ~lo ~hi
let range_with_proof t ~lo ~hi = Kv_node.range_with_proof t.store t.root ~lo ~hi
let iter t f = Kv_node.iter t.store t.root f

let verify_get = Kv_node.verify_get
let verify_get_batch = Kv_node.verify_get_batch
let verify_range = Kv_node.verify_range
let extract_range = Kv_node.extract_range
let iter_nodes = Kv_node.iter_nodes
