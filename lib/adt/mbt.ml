open Spitz_crypto
open Spitz_storage

(* Merkle Bucket Tree (Hyperledger-style): a fixed number of hash-addressed
   buckets under a binary Merkle tree. Point lookups and inserts touch one
   bucket plus a logarithmic path; range queries must scan every bucket
   because bucket placement follows the key hash, not key order — the known
   weakness [59] reports for MBT, reproduced here honestly. *)

let name = "mbt"

let default_buckets = 1024

type node =
  | Bucket of (string * string) list (* sorted (key, value) *)
  | Inner of Hash.t * Hash.t

let encode_node_into buf node =
  match node with
  | Bucket entries ->
    Wire.write_byte buf 'K';
    Wire.write_list buf
      (fun buf (k, v) -> Wire.write_string buf k; Wire.write_string buf v)
      entries
  | Inner (l, r) ->
    Wire.write_byte buf 'N';
    Wire.write_hash buf l;
    Wire.write_hash buf r

let decode_node data =
  let r = Wire.reader data in
  match Wire.read_byte r with
  | 'K' ->
    Bucket (Wire.read_list r (fun r ->
        let k = Wire.read_string r in
        let v = Wire.read_string r in
        (k, v)))
  | 'N' ->
    let l = Wire.read_hash r in
    let rr = Wire.read_hash r in
    Inner (l, rr)
  | c -> raise (Wire.Malformed (Printf.sprintf "Mbt: bad node tag %C" c))

type t = {
  store : Object_store.t;
  buckets : int;     (* power of two *)
  depth : int;       (* log2 buckets *)
  root : Hash.t;     (* always present: the empty tree is materialized *)
  count : int;
}

let store t = t.store
let root_digest t = t.root
let cardinal t = t.count

(* first 32 bits of the key hash; the low [depth] of them select the bucket *)
let key_bits key =
  let h = Hash.to_raw (Hash.of_string key) in
  Char.code h.[0] lsl 24 lor (Char.code h.[1] lsl 16)
  lor (Char.code h.[2] lsl 8) lor Char.code h.[3]

let bucket_of_key t key = key_bits key land (t.buckets - 1)

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create_sized ~buckets store =
  if buckets land (buckets - 1) <> 0 || buckets < 2 then
    invalid_arg "Mbt.create_sized: buckets must be a power of two >= 2";
  let depth = log2 buckets in
  (* Build the empty tree bottom-up; all buckets share one empty node. *)
  let buf = Wire.writer () in
  let put node =
    Wire.clear buf;
    encode_node_into buf node;
    Object_store.put_writer store buf
  in
  let empty_bucket = put (Bucket []) in
  let rec up h level = if level = 0 then h else up (put (Inner (h, h))) (level - 1) in
  { store; buckets; depth; root = up empty_bucket depth; count = 0 }

let create store = create_sized ~buckets:default_buckets store

(* Decoded-node cache, shared across stores by content address (see
   Kv_node): membership is checked per access so swept nodes still raise
   [Not_found]. Buckets are immutable lists; updates build new nodes. *)
let cache : node Node_cache.t = Node_cache.create ~capacity:65536 ()

let decode_cached h bytes =
  Node_cache.find_or_add cache h ~load:(fun () -> decode_node bytes)

let cache_stats () = Node_cache.stats cache
let reset_cache_stats () = Node_cache.reset_stats cache

let load t h =
  match Node_cache.find cache h with
  | Some node when Object_store.mem t.store h -> node
  | _ ->
    let node = decode_node (Object_store.get_exn t.store h) in
    Node_cache.add cache h node;
    node

let save t node =
  let buf = Wire.writer () in
  encode_node_into buf node;
  Object_store.put_writer t.store buf

(* Bit i (from the top) of the bucket index steers the descent at depth i. *)
let bit_at t bucket level = (bucket lsr (t.depth - 1 - level)) land 1

let rec update_path t h bucket level f =
  if level = t.depth then begin
    match load t h with
    | Bucket entries ->
      let entries', grew = f entries in
      (save t (Bucket entries'), grew)
    | Inner _ -> raise (Wire.Malformed "Mbt: inner node at bucket depth")
  end
  else begin
    match load t h with
    | Inner (l, r) ->
      if bit_at t bucket level = 0 then begin
        let l', grew = update_path t l bucket (level + 1) f in
        (save t (Inner (l', r)), grew)
      end
      else begin
        let r', grew = update_path t r bucket (level + 1) f in
        (save t (Inner (l, r')), grew)
      end
    | Bucket _ -> raise (Wire.Malformed "Mbt: bucket above bucket depth")
  end

let rec insert_sorted key value = function
  | [] -> ([ (key, value) ], true)
  | (k, v) :: rest as all ->
    let c = String.compare key k in
    if c < 0 then ((key, value) :: all, true)
    else if c = 0 then ((key, value) :: rest, false)
    else begin
      let rest', grew = insert_sorted key value rest in
      ((k, v) :: rest', grew)
    end

let insert t key value =
  let bucket = bucket_of_key t key in
  let root, grew = update_path t t.root bucket 0 (insert_sorted key value) in
  { t with root; count = (if grew then t.count + 1 else t.count) }

let insert_batch t kvs = List.fold_left (fun t (k, v) -> insert t k v) t kvs
let insert_batch_at t ~epoch:_ kvs = (insert_batch t kvs, [])

let rec find_bucket t h bucket level =
  if level = t.depth then
    match load t h with
    | Bucket entries -> entries
    | Inner _ -> raise (Wire.Malformed "Mbt: inner node at bucket depth")
  else
    match load t h with
    | Inner (l, r) -> find_bucket t (if bit_at t bucket level = 0 then l else r) bucket (level + 1)
    | Bucket _ -> raise (Wire.Malformed "Mbt: bucket above bucket depth")

let get t key = List.assoc_opt key (find_bucket t t.root (bucket_of_key t key) 0)

let get_with_proof t key =
  let bucket = bucket_of_key t key in
  let nodes = ref [] in
  let rec go h level =
    let bytes = Object_store.get_exn t.store h in
    nodes := bytes :: !nodes;
    match decode_cached h bytes with
    | Bucket entries -> if level = t.depth then List.assoc_opt key entries else None
    | Inner (l, r) ->
      if level >= t.depth then None
      else go (if bit_at t bucket level = 0 then l else r) (level + 1)
  in
  let v = go t.root 0 in
  (v, { Siri.nodes = List.rev !nodes })

(* Batched lookup: the upper levels of the tree are shared between bucket
   paths (the root always, more the closer two buckets hash), so recording
   each node once makes the batched proof smaller than the per-key union. *)
let prove_batch t keys =
  let recorded = Hash.Table.create 64 in
  let nodes = ref [] in
  let lookup key =
    let bucket = bucket_of_key t key in
    let rec go h level =
      let bytes = Object_store.get_exn t.store h in
      if not (Hash.Table.mem recorded h) then begin
        Hash.Table.replace recorded h ();
        nodes := bytes :: !nodes
      end;
      match decode_cached h bytes with
      | Bucket entries -> if level = t.depth then List.assoc_opt key entries else None
      | Inner (l, r) ->
        if level >= t.depth then None
        else go (if bit_at t bucket level = 0 then l else r) (level + 1)
    in
    go t.root 0
  in
  let values = List.map lookup keys in
  (values, { Siri.nodes = List.rev !nodes })

let fold_buckets t f init =
  let acc = ref init in
  let rec go h level =
    match load t h with
    | Bucket entries -> acc := f !acc entries
    | Inner (l, r) -> if level < t.depth then begin go l (level + 1); go r (level + 1) end
  in
  go t.root 0;
  !acc

let range t ~lo ~hi =
  let entries =
    fold_buckets t
      (fun acc entries ->
         List.fold_left
           (fun acc (k, v) ->
              if String.compare lo k <= 0 && String.compare k hi <= 0 then (k, v) :: acc else acc)
           acc entries)
      []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

(* A complete range proof over an MBT is the entire tree: bucket placement is
   hash-ordered, so no subtree can be excluded. Empty subtrees are shared
   (one hash reached from many positions), so each distinct node is recorded
   once — without the dedup the proof ships a copy per occurrence. *)
let range_with_proof t ~lo ~hi =
  let recorded = Hash.Table.create 64 in
  let nodes = ref [] in
  let entries = ref [] in
  let rec go h level =
    if not (Hash.Table.mem recorded h) then begin
      Hash.Table.replace recorded h ();
      let bytes = Object_store.get_exn t.store h in
      nodes := bytes :: !nodes;
      match decode_cached h bytes with
      | Bucket bucket ->
        List.iter
          (fun (k, v) ->
             if String.compare lo k <= 0 && String.compare k hi <= 0 then entries := (k, v) :: !entries)
          bucket
      | Inner (l, r) -> if level < t.depth then begin go l (level + 1); go r (level + 1) end
    end
  in
  go t.root 0;
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) !entries in
  (entries, { Siri.nodes = List.rev !nodes })

let iter t f = fold_buckets t (fun () entries -> List.iter (fun (k, v) -> f k v) entries) ()

(* --- Client-side verification. The verifier cannot know [depth] a priori;
   it trusts the structure only through hashes. The proof length says nothing
   about the depth (a batched proof covers many paths), so verification
   searches for the unique depth d at which a descent steered by the low d
   bits of the key hash reaches a Bucket at exactly level d. In an honest
   tree all buckets sit at one depth, so at most one d succeeds: shallower
   attempts find an Inner where a Bucket is required, deeper ones a Bucket
   where an Inner is required. A path of depth d crosses d+1 distinct nodes
   (the hash DAG is acyclic), which bounds the search by the proof size. *)

let verify_get_batch ~digest ~items proof =
  let index = Siri.proof_index proof in
  let decoded = Hash.Table.create 64 in
  let node_of h =
    match Hash.Table.find_opt decoded h with
    | Some _ as n -> n
    | None ->
      (match Hash.Map.find_opt h index with
       | None -> None
       | Some bytes ->
         (match decode_node bytes with
          | node ->
            Hash.Table.replace decoded h node;
            Some node
          | exception Wire.Malformed _ -> None))
  in
  let max_d = min (List.length proof.Siri.nodes - 1) 32 in
  let check (key, value) =
    let bits = key_bits key in
    let rec descend h level d bucket =
      match node_of h with
      | None -> None
      | Some (Bucket entries) ->
        if level = d then Some (List.assoc_opt key entries) else None
      | Some (Inner (l, r)) ->
        if level >= d then None
        else descend (if (bucket lsr (d - 1 - level)) land 1 = 0 then l else r) (level + 1) d bucket
    in
    let rec search d =
      if d > max_d then false
      else begin
        match descend digest 0 d (bits land ((1 lsl d) - 1)) with
        | Some found -> found = value
        | None -> search (d + 1)
      end
    in
    search 0
  in
  List.for_all check items

let verify_get ~digest ~key ~value proof =
  verify_get_batch ~digest ~items:[ (key, value) ] proof

let extract_range ~digest ~lo ~hi proof =
  let index = Siri.proof_index proof in
  let found = ref [] in
  let exception Bad in
  (* Each distinct node is processed once. In an honest MBT only empty
     subtrees are ever shared (a key's bucket is determined by its hash, so
     identical non-empty buckets cannot occur at two positions), so
     memoization never drops entries — and it bounds the work an adversarial
     diamond-shaped proof DAG could otherwise amplify exponentially. *)
  let visited = Hash.Table.create 64 in
  let rec go h =
    if not (Hash.Table.mem visited h) then begin
      Hash.Table.replace visited h ();
      match Hash.Map.find_opt h index with
      | None -> raise Bad
      | Some bytes ->
        (match try decode_node bytes with Wire.Malformed _ -> raise Bad with
         | Bucket bucket ->
           List.iter
             (fun (k, v) ->
                if String.compare lo k <= 0 && String.compare k hi <= 0 then found := (k, v) :: !found)
             bucket
         | Inner (l, r) -> go l; go r)
    end
  in
  match go digest with
  | () -> Some (List.sort (fun (a, _) (b, _) -> String.compare a b) !found)
  | exception Bad -> None

let verify_range ~digest ~lo ~hi ~entries proof =
  extract_range ~digest ~lo ~hi proof = Some entries

(* Reopen at a root: the bucket depth is recovered by walking the left spine
   down to the first bucket node. *)
let at_root store root ~count =
  let rec depth h acc =
    match decode_node (Object_store.get_exn store h) with
    | Bucket _ -> acc
    | Inner (l, _) -> depth l (acc + 1)
  in
  let depth = depth root 0 in
  if depth < 1 then invalid_arg "Mbt.at_root: root is not a bucket tree";
  { store; buckets = 1 lsl depth; depth; root; count }

(* Visit every node reachable from a root (a checkpoint's mark). *)
let iter_nodes store root visit =
  let seen = Hash.Table.create 256 in
  let rec go h =
    if not (Hash.is_null h) && not (Hash.Table.mem seen h) then begin
      Hash.Table.replace seen h ();
      visit h;
      match decode_node (Object_store.get_exn store h) with
      | Bucket _ -> ()
      | Inner (l, r) -> go l; go r
    end
  in
  go root
