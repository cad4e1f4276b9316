open Spitz_crypto
open Spitz_storage
open Kv_node

(* Pattern-Oriented-Split Tree (POS-tree), the SIRI instance ForkBase
   introduces and [59] finds best overall. It is a search tree whose node
   boundaries are *content-defined*: an element closes a node when a pattern
   occurs in its fingerprint (leaf entries: fingerprint of key+value; index
   entries: pattern in the child hash). The resulting structure depends only
   on the set of entries, never on the order of operations — two parties that
   applied the same updates in different orders hold byte-identical trees, and
   versions share every node outside the edit's neighbourhood.

   Inserts and deletes do a local repair: re-chunk from the start of the
   affected node, absorbing right-hand neighbours until the new chunking
   realigns with an old node boundary, then propagate the replaced links
   upward the same way. *)

let name = "pos-tree"

let pattern_mask = 31 (* expected 32 elements per node *)
let cap = 256         (* forced boundary: bounds the pathological node size *)

(* FNV-1a over strings, folded into OCaml's 63-bit native int (wrap-around
   multiply). Only used to place boundaries, so collisions are harmless; it
   must merely be deterministic, which it is on any 64-bit platform. *)
let fnv_prime = 0x100000001b3

let fnv_fold h s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime) s;
  !h

let fnv_offset = 0x4bf29ce484222325 (* FNV-1a offset basis folded into 63 bits *)

let leaf_boundary (k, v) =
  let fp = fnv_fold (fnv_fold (fnv_fold fnv_offset k) "\x00") v in
  fp land pattern_mask = 0

let link_boundary (_, h) = fnv_fold fnv_offset (Hash.to_raw h) land pattern_mask = 0

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

(* --- Chunking --- *)

(* Split a complete element list into chunks (used for bulk build and for the
   levels above the repair window). Never returns empty chunks; a non-empty
   input yields at least one chunk. *)
let chunk_all ~boundary elems =
  let chunks = ref [] and current = ref [] and count = ref 0 in
  List.iter
    (fun e ->
       current := e :: !current;
       incr count;
       if boundary e || !count >= cap then begin
         chunks := List.rev !current :: !chunks;
         current := [];
         count := 0
       end)
    elems;
  if !current <> [] then chunks := List.rev !current :: !chunks;
  List.rev !chunks

(* Re-chunk a repair window. [window] holds the edited elements covering
   whole old chunks; [pull] supplies the element list of the next old chunk
   at this level (None at end of level). Stops as soon as a new boundary
   lands exactly on an old chunk end — from there the old chunking is
   reproduced verbatim. Returns the new chunks and how many extra old chunks
   were absorbed. *)
let rechunk ~boundary ~window ~pull =
  let chunks = ref [] and current = ref [] and count = ref 0 in
  let extra = ref 0 in
  let rec go pending =
    match pending with
    | [] ->
      if !current = [] then () (* aligned with an old chunk end: done *)
      else begin
        match pull () with
        | None -> chunks := List.rev !current :: !chunks (* end of level *)
        | Some elems ->
          incr extra;
          go elems
      end
    | e :: rest ->
      current := e :: !current;
      incr count;
      if boundary e || !count >= cap then begin
        chunks := List.rev !current :: !chunks;
        current := [];
        count := 0
      end;
      go rest
  in
  go window;
  (List.rev !chunks, !extra)

(* --- Cursors over the chunks of one level --- *)

type frame = { mutable elems : (string * Hash.t) array; mutable idx : int }

(* frames.(0) is the root node's links; frames.(j) the followed child's, and
   so on down to the parent of the target level. [next] yields the hash of
   the next chunk at the target level, advancing the cursor. *)
let rec frame_next store frames j =
  let f = frames.(j) in
  f.idx <- f.idx + 1;
  if f.idx < Array.length f.elems then Some (snd f.elems.(f.idx))
  else if j = 0 then None
  else begin
    match frame_next store frames (j - 1) with
    | None -> None
    | Some h ->
      (match load store h with
       | Internal links ->
         f.elems <- links;
         f.idx <- 0;
         if Array.length f.elems = 0 then raise (Wire.Malformed "Pos_tree: empty internal node");
         Some (snd f.elems.(0))
       | Leaf _ -> raise (Wire.Malformed "Pos_tree: leaf above leaf level"))
  end

let cursor_next store frames () =
  if Array.length frames = 0 then None
  else frame_next store frames (Array.length frames - 1)

let copy_frames frames lo hi =
  Array.init (hi - lo) (fun i -> { elems = frames.(lo + i).elems; idx = frames.(lo + i).idx })

(* --- Building upward --- *)

let link_of store node =
  let h = save store node in
  (min_key node, h)

(* Chunk links upward until a single node remains. *)
let rec build_up store links =
  match links with
  | [] -> None
  | [ (_, h) ] -> Some h
  | links ->
    let chunks = chunk_all ~boundary:link_boundary links in
    let links' = List.map (fun ch -> link_of store (Internal (Array.of_list ch))) chunks in
    build_up store links'

let of_sorted_entries store entries =
  let count = List.length entries in
  match entries with
  | [] -> { store; root = None; count = 0 }
  | entries ->
    let leaf_chunks = chunk_all ~boundary:leaf_boundary entries in
    let links = List.map (fun ch -> link_of store (Leaf (Array.of_list ch))) leaf_chunks in
    { store; root = build_up store links; count }

(* --- Local repair update --- *)

(* Apply [edit] to the entries of the leaf responsible for [key] and repair
   the tree. [edit] returns the new entry list and the cardinality delta. *)
let update t key edit =
  match t.root with
  | None ->
    let entries, delta = edit [] in
    let t' = of_sorted_entries t.store entries in
    { t' with count = t.count + delta }
  | Some root ->
    (* Descend, recording each internal node's links and followed index. *)
    let frames = ref [] in
    let rec descend h =
      match load t.store h with
      | Leaf entries -> Array.to_list entries
      | Internal links ->
        let idx = child_index links key in
        frames := { elems = links; idx } :: !frames;
        descend (snd links.(idx))
    in
    let leaf_entries = descend root in
    let frames = Array.of_list (List.rev !frames) in (* frames.(0) = root *)
    let height = Array.length frames in (* number of internal levels *)
    let window, delta = edit leaf_entries in
    (* Level 0: re-chunk the edited leaf. *)
    let cursor0 = cursor_next t.store (copy_frames frames 0 height) in
    let pull0 () =
      match cursor0 () with
      | None -> None
      | Some h ->
        (match load t.store h with
         | Leaf entries -> Some (Array.to_list entries)
         | Internal _ -> raise (Wire.Malformed "Pos_tree: internal node at leaf level"))
    in
    let leaf_chunks, extra0 = rechunk ~boundary:leaf_boundary ~window ~pull:pull0 in
    let new_links =
      ref (List.map (fun ch -> link_of t.store (Leaf (Array.of_list ch))) leaf_chunks)
    in
    let removed = ref (1 + extra0) in
    (* Internal levels, bottom-up. frames.(l) is the node at internal level
       (height - l), so iterate l from height-1 down to 0. *)
    let root' = ref None in
    let l = ref (height - 1) in
    while !l >= 0 do
      let f = frames.(!l) in
      let links = Array.to_list f.elems in
      let idx = f.idx in
      (* Cursor over this level's own chunks (nodes), driven by the frames
         strictly above it. *)
      let cursor = cursor_next t.store (copy_frames frames 0 !l) in
      let pull () =
        match cursor () with
        | None -> None
        | Some h ->
          (match load t.store h with
           | Internal links -> Some (Array.to_list links)
           | Leaf _ -> raise (Wire.Malformed "Pos_tree: leaf at internal level"))
      in
      (* Collect elements until the removed range is covered. *)
      let stream = ref links and pulled = ref 0 in
      while List.length !stream < idx + !removed do
        match pull () with
        | Some elems ->
          incr pulled;
          stream := !stream @ elems
        | None -> raise (Wire.Malformed "Pos_tree: repair ran past end of level")
      done;
      let prefix = List.filteri (fun i _ -> i < idx) !stream in
      let tail = List.filteri (fun i _ -> i >= idx + !removed) !stream in
      let window = prefix @ !new_links @ tail in
      if !l = 0 then begin
        (* Root level: nothing to absorb beyond the window. *)
        let chunks, _ = rechunk ~boundary:link_boundary ~window ~pull:(fun () -> None) in
        let links' =
          List.map (fun ch -> link_of t.store (Internal (Array.of_list ch))) chunks
        in
        root' := build_up t.store links'
      end
      else begin
        let chunks, extra = rechunk ~boundary:link_boundary ~window ~pull in
        new_links :=
          List.map (fun ch -> link_of t.store (Internal (Array.of_list ch))) chunks;
        removed := 1 + !pulled + extra
      end;
      decr l
    done;
    if height = 0 then begin
      (* The root was itself a leaf. *)
      root' := build_up t.store !new_links
    end;
    (* When the update shrinks a level to a single chunk, the repair above
       still rebuilds the old levels over it, leaving a single-child chain at
       the top. A canonical root never has exactly one child (the level below
       it always held at least two chunks), so collapsing the chain restores
       the canonical, order-independent shape. *)
    let rec collapse h =
      match load t.store h with
      | Internal [| (_, child) |] -> collapse child
      | Internal _ | Leaf _ -> h
    in
    { t with root = Option.map collapse !root'; count = t.count + delta }

let rec insert_entry key value = function
  | [] -> ([ (key, value) ], 1)
  | (k, v) :: rest as all ->
    let c = String.compare key k in
    if c < 0 then ((key, value) :: all, 1)
    else if c = 0 then ((key, value) :: rest, 0)
    else begin
      let rest', d = insert_entry key value rest in
      ((k, v) :: rest', d)
    end

let insert t key value = update t key (insert_entry key value)

let insert_batch t kvs = List.fold_left (fun t (k, v) -> insert t k v) t kvs
let insert_batch_at t ~epoch:_ kvs = (insert_batch t kvs, [])

let remove t key =
  update t key (fun entries ->
      let present = List.mem_assoc key entries in
      (List.remove_assoc key entries, if present then -1 else 0))

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
