open Spitz_crypto
open Spitz_storage

(* Node layout, codec, navigation, and proof verification shared by the
   key-ordered SIRI instances (Merkle B+-tree and POS-tree): a leaf holds
   sorted (key, value) entries; an internal node holds (separator, child)
   links where child i covers keys in [sep_i, sep_{i+1}). Both are arrays:
   navigation is a binary search, and a batch update edits its own copies
   in place. *)

type node =
  | Leaf of (string * string) array
  | Internal of (string * Hash.t) array

let encode_into buf node =
  match node with
  | Leaf entries ->
    Wire.write_byte buf 'L';
    Wire.write_array buf
      (fun buf (k, v) -> Wire.write_string buf k; Wire.write_string buf v)
      entries
  | Internal children ->
    Wire.write_byte buf 'I';
    Wire.write_array buf
      (fun buf (k, h) -> Wire.write_string buf k; Wire.write_hash buf h)
      children

let encode node =
  let buf = Wire.writer () in
  encode_into buf node;
  Wire.contents buf

let decode data =
  let r = Wire.reader data in
  match Wire.read_byte r with
  | 'L' ->
    Leaf (Wire.read_array r (fun r ->
        let k = Wire.read_string r in
        let v = Wire.read_string r in
        (k, v)))
  | 'I' ->
    Internal (Wire.read_array r (fun r ->
        let k = Wire.read_string r in
        let h = Wire.read_hash r in
        (k, h)))
  | c -> raise (Wire.Malformed (Printf.sprintf "Kv_node: bad node tag %C" c))

(* Whether [data] can be a node's encoding: a node starts with its tag. *)
let may_be_node data = data <> "" && (data.[0] = 'L' || data.[0] = 'I')

(* Decoded nodes are cached across all stores by content address: the same
   hash always denotes the same bytes, so a cached decode is valid for any
   store that holds the object. Store membership is still checked on every
   access so that swept (compacted) nodes keep raising [Not_found] exactly
   as the uncached path did. A decoded node's arrays are never mutated — a
   batch update copies a node before editing it — which makes sharing one
   decoded value across traversals (and domains) safe. A batch also takes
   each node it supersedes out of the cache ([take]), so the cache holds
   the head's nodes and what readers decode, not every version's. *)
let cache : node Node_cache.t = Node_cache.create ~capacity:65536 ()

(* Memoized decode when the serialized bytes are already at hand (proof
   assembly): the store hit has been paid, only the decode is saved. *)
let decode_cached h bytes =
  Node_cache.find_or_add cache h ~load:(fun () -> decode bytes)

let load store h =
  match Node_cache.find cache h with
  | Some node when Object_store.mem store h -> node
  | _ ->
    let node = decode (Object_store.get_exn store h) in
    Node_cache.add cache h node;
    node

(* Encode into [buf] (cleared first) and store straight from its buffer:
   the identity hash is computed in place, and a dedup hit (shared subtree
   node) never materializes the encoding as a string at all. A batch passes
   one writer for all the nodes it flushes. With [epoch] the node is put as
   one block [epoch] created ({!Object_store.put_node}). *)
let save_with ?epoch buf store node =
  Wire.clear buf;
  encode_into buf node;
  match epoch with
  | None -> Object_store.put_writer store buf
  | Some epoch -> Object_store.put_node store ~epoch buf

let save store node = save_with (Wire.writer ()) store node

(* [save_with] that also caches the node under its address: the next batch
   to touch it finds it decoded instead of decoding it from its bytes. *)
let save_cached ?epoch buf store node =
  let h = save_with ?epoch buf store node in
  Node_cache.add cache h node;
  h

(* A stored node a batch is about to supersede: taken out of the cache,
   since only a reader pinned at an older version can still want it, and
   that reader decodes it again. A miss decodes without caching. *)
let take store h =
  match Node_cache.take cache h with
  | Some node when Object_store.mem store h -> node
  | _ -> decode (Object_store.get_exn store h)

(* The number of the first [n] slots of [items] whose key is <= [key]. The
   keys are sorted, so this is a binary search. *)
let count_le items n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if String.compare (fst items.(mid)) key <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Index of the child to follow for [key] among the first [n] links: the
   last separator <= key, or the first child when the key sorts before
   everything. *)
let child_index_sub children n key = max 0 (count_le children n key - 1)

let child_index children key = child_index_sub children (Array.length children) key

(* The value of [key] in a leaf's sorted entries. *)
let find_entry entries key =
  let i = count_le entries (Array.length entries) key - 1 in
  if i >= 0 && String.equal (fst entries.(i)) key then Some (snd entries.(i)) else None

let min_key = function
  | Leaf entries when Array.length entries > 0 -> fst entries.(0)
  | Internal children when Array.length children > 0 -> fst children.(0)
  | Leaf _ | Internal _ -> invalid_arg "Kv_node.min_key: empty node"

let child_for children key = snd children.(child_index children key)

let get store root key =
  match root with
  | None -> None
  | Some h ->
    let rec go h =
      match load store h with
      | Leaf entries -> find_entry entries key
      | Internal children -> go (child_for children key)
    in
    go h

let get_with_proof store root key =
  match root with
  | None -> (None, { Siri.nodes = [] })
  | Some h ->
    let nodes = ref [] in
    let rec go h =
      let bytes = Object_store.get_exn store h in
      nodes := bytes :: !nodes;
      match decode_cached h bytes with
      | Leaf entries -> find_entry entries key
      | Internal children -> go (child_for children key)
    in
    let value = go h in
    (value, { Siri.nodes = List.rev !nodes })

(* Batched lookup: one traversal for the whole (sorted, deduplicated) key
   set. [child_index] is monotone in the key, so the sorted keys split into
   contiguous runs per child and every shared upper node is visited — and its
   bytes recorded — exactly once, which is what makes the batched proof
   smaller than the union of per-key paths. *)
let prove_batch store root keys =
  match root with
  | None -> (List.map (fun _ -> None) keys, { Siri.nodes = [] })
  | Some root_hash ->
    let recorded = Hash.Table.create 64 in
    let nodes = ref [] in
    let results = Hashtbl.create (List.length keys) in
    let rec go h keys =
      let bytes = Object_store.get_exn store h in
      if not (Hash.Table.mem recorded h) then begin
        Hash.Table.replace recorded h ();
        nodes := bytes :: !nodes
      end;
      match decode_cached h bytes with
      | Leaf entries ->
        List.iter (fun k -> Hashtbl.replace results k (find_entry entries k)) keys
      | Internal children ->
        let rec runs = function
          | [] -> ()
          | k :: _ as ks ->
            let i = child_index children k in
            let rec take acc = function
              | k' :: rest when child_index children k' = i -> take (k' :: acc) rest
              | rest -> (List.rev acc, rest)
            in
            let mine, rest = take [] ks in
            go (snd children.(i)) mine;
            runs rest
        in
        runs keys
    in
    go root_hash (List.sort_uniq String.compare keys);
    (List.map (fun k -> Hashtbl.find results k) keys, { Siri.nodes = List.rev !nodes })

(* Child i covers [sep_i, sep_{i+1}); the children overlapping [lo, hi],
   in order. *)
let children_overlapping children ~lo ~hi =
  let n = Array.length children in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let starts_before_hi = String.compare (fst children.(i)) hi <= 0 in
    let ends_after_lo = i + 1 = n || String.compare (fst children.(i + 1)) lo > 0 in
    if starts_before_hi && ends_after_lo then acc := children.(i) :: !acc
  done;
  !acc

(* [decode_node] lets the store-backed paths decode through the cache while
   client-side proof verification keeps a plain, storeless decode. *)
let range_visit ?(decode_node = fun _ bytes -> decode bytes) ~load_bytes root ~lo ~hi ~record =
  let acc = ref [] in
  let rec go h =
    match load_bytes h with
    | None -> raise Not_found
    | Some bytes ->
      record bytes;
      (match decode_node h bytes with
       | Leaf entries ->
         Array.iter
           (fun (k, v) ->
              if String.compare lo k <= 0 && String.compare k hi <= 0 then acc := (k, v) :: !acc)
           entries
       | Internal children ->
         List.iter (fun (_, ch) -> go ch) (children_overlapping children ~lo ~hi))
  in
  (match root with None -> () | Some h -> go h);
  List.rev !acc

let range store root ~lo ~hi =
  range_visit ~decode_node:decode_cached ~load_bytes:(Object_store.get store) root ~lo ~hi
    ~record:(fun _ -> ())

let range_with_proof store root ~lo ~hi =
  (* each distinct node once, even if the walk reaches it from two places *)
  let recorded = Hashtbl.create 64 in
  let nodes = ref [] in
  let entries =
    range_visit ~decode_node:decode_cached ~load_bytes:(Object_store.get store) root ~lo ~hi
      ~record:(fun bytes ->
          if not (Hashtbl.mem recorded bytes) then begin
            Hashtbl.replace recorded bytes ();
            nodes := bytes :: !nodes
          end)
  in
  (entries, { Siri.nodes = List.rev !nodes })

let iter store root f =
  match root with
  | None -> ()
  | Some h ->
    let rec go h =
      match load store h with
      | Leaf entries -> Array.iter (fun (k, v) -> f k v) entries
      | Internal children -> Array.iter (fun (_, ch) -> go ch) children
    in
    go h

(* --- Client-side verification: no store access, only proof bytes. --- *)

let verify_get ~digest ~key ~value proof =
  if Hash.is_null digest then value = None && proof.Siri.nodes = []
  else begin
    let index = Siri.proof_index proof in
    let rec go h =
      match Hash.Map.find_opt h index with
      | None -> None
      | Some bytes ->
        (match try decode bytes with Wire.Malformed _ -> raise Not_found with
         | Leaf entries -> Some (find_entry entries key)
         | Internal [||] -> None
         | Internal children -> go (child_for children key))
    in
    match go digest with
    | Some found -> found = value
    | None | exception Not_found -> false
  end

(* Batched verification: the proof index is built (each node hashed) once and
   each node decoded at most once for the whole batch; the per-key work is
   then a pure walk over decoded nodes. *)
let verify_get_batch ~digest ~items proof =
  if Hash.is_null digest then
    List.for_all (fun (_, v) -> v = None) items && proof.Siri.nodes = []
  else begin
    let index = Siri.proof_index proof in
    let decoded = Hash.Table.create 64 in
    let node_of h =
      match Hash.Table.find_opt decoded h with
      | Some _ as n -> n
      | None ->
        (match Hash.Map.find_opt h index with
         | None -> None
         | Some bytes ->
           (match decode bytes with
            | node ->
              Hash.Table.replace decoded h node;
              Some node
            | exception Wire.Malformed _ -> None))
    in
    let check (key, value) =
      let rec go h =
        match node_of h with
        | None -> None
        | Some (Leaf entries) -> Some (find_entry entries key)
        | Some (Internal [||]) -> None
        | Some (Internal children) -> go (child_for children key)
      in
      go digest = Some value
    in
    List.for_all check items
  end

let extract_range ~digest ~lo ~hi proof =
  if Hash.is_null digest then (if proof.Siri.nodes = [] then Some [] else None)
  else begin
    let index = Siri.proof_index proof in
    match
      range_visit
        ~load_bytes:(fun h -> Hash.Map.find_opt h index)
        (Some digest) ~lo ~hi ~record:(fun _ -> ())
    with
    | found -> Some found
    | exception (Not_found | Wire.Malformed _) -> None
  end

let verify_range ~digest ~lo ~hi ~entries proof =
  extract_range ~digest ~lo ~hi proof = Some entries

(* The child addresses of a node, read straight from its bytes: a leaf
   has none, and an internal node's separators are skipped, not copied. *)
let iter_children data f =
  let r = Wire.reader data in
  match Wire.read_byte r with
  | 'L' -> ()
  | 'I' ->
    for _ = 1 to Wire.read_varint r do
      ignore (Wire.read_raw r (Wire.read_varint r) : Slice.t);
      f (Wire.read_hash r)
    done
  | c -> raise (Wire.Malformed (Printf.sprintf "Kv_node: bad node tag %C" c))

(* Visit every node reachable from a root (the retention mark, and a
   reopen's classification of the head instance). A node's bytes hold its
   keys, and no other node of the same tree holds them, so a tree reaches
   each of its nodes once. The walk reads raw bytes: nothing is decoded,
   and nothing enters the node cache. *)
let iter_nodes store root visit =
  let rec go h =
    if not (Hash.is_null h) then begin
      visit h;
      iter_children (Object_store.get_exn store h) go
    end
  in
  go root
