open Spitz_crypto
open Spitz_storage

(* Merkle Patricia Trie (Ethereum-style, simplified): one of the three SIRI
   instances analysed in [59]. Keys are split into 4-bit nibbles; nodes are
   content-addressed for structural sharing across versions. *)

let name = "mpt"

(* Nibble strings: each char is 0..15. *)
let to_nibbles key =
  String.init (2 * String.length key) (fun i ->
      let byte = Char.code key.[i / 2] in
      Char.chr (if i land 1 = 0 then byte lsr 4 else byte land 0xf))

let of_nibbles nib =
  if String.length nib land 1 = 1 then invalid_arg "Mpt.of_nibbles: odd length";
  String.init (String.length nib / 2) (fun i ->
      Char.chr ((Char.code nib.[2 * i] lsl 4) lor Char.code nib.[(2 * i) + 1]))

type node =
  | Leaf of string * string                    (* remaining nibble path, value *)
  | Ext of string * Hash.t                     (* shared nibble path, child *)
  | Branch of Hash.t option array * string option (* 16 children, value ending here *)

let encode_node_into buf node =
  match node with
  | Leaf (path, value) ->
    Wire.write_byte buf 'L';
    Wire.write_string buf path;
    Wire.write_string buf value
  | Ext (path, child) ->
    Wire.write_byte buf 'E';
    Wire.write_string buf path;
    Wire.write_hash buf child
  | Branch (children, value) ->
    Wire.write_byte buf 'B';
    let bitmap = ref 0 in
    Array.iteri (fun i c -> if c <> None then bitmap := !bitmap lor (1 lsl i)) children;
    Wire.write_varint buf !bitmap;
    Array.iter (function Some h -> Wire.write_hash buf h | None -> ()) children;
    (match value with
     | Some v -> Wire.write_byte buf '\001'; Wire.write_string buf v
     | None -> Wire.write_byte buf '\000')

let decode_node data =
  let r = Wire.reader data in
  match Wire.read_byte r with
  | 'L' ->
    let path = Wire.read_string r in
    let value = Wire.read_string r in
    Leaf (path, value)
  | 'E' ->
    let path = Wire.read_string r in
    let child = Wire.read_hash r in
    Ext (path, child)
  | 'B' ->
    let bitmap = Wire.read_varint r in
    let children =
      Array.init 16 (fun i -> if bitmap land (1 lsl i) <> 0 then Some (Wire.read_hash r) else None)
    in
    let value =
      match Wire.read_byte r with
      | '\001' -> Some (Wire.read_string r)
      | '\000' -> None
      | c -> raise (Wire.Malformed (Printf.sprintf "Mpt: bad value tag %C" c))
    in
    Branch (children, value)
  | c -> raise (Wire.Malformed (Printf.sprintf "Mpt: bad node tag %C" c))

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

(* Decoded-node cache, shared across stores by content address (see
   Kv_node): membership is checked per access so swept nodes still raise
   [Not_found]. Decoded branches are copied (never mutated in place) by
   [insert_at], so cached nodes can be shared freely. *)
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

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let drop s n = String.sub s n (String.length s - n)

(* Insert [path -> value] into the subtree rooted at [h]; returns the new
   subtree hash and whether cardinality grew. *)
let rec insert_at t h path value =
  match load t h with
  | Leaf (lpath, lvalue) ->
    if String.equal lpath path then (save t (Leaf (path, value)), false)
    else begin
      let p = common_prefix_len lpath path in
      let children = Array.make 16 None in
      let branch_value = ref None in
      let place rem v =
        if String.length rem = 0 then branch_value := Some v
        else begin
          let idx = Char.code rem.[0] in
          children.(idx) <- Some (save t (Leaf (drop rem 1, v)))
        end
      in
      place (drop lpath p) lvalue;
      place (drop path p) value;
      let branch = save t (Branch (children, !branch_value)) in
      let node = if p = 0 then branch else save t (Ext (String.sub path 0 p, branch)) in
      (node, true)
    end
  | Ext (epath, child) ->
    let p = common_prefix_len epath path in
    if p = String.length epath then begin
      let child', grew = insert_at t child (drop path p) value in
      (save t (Ext (epath, child')), grew)
    end
    else begin
      (* split the extension at p *)
      let children = Array.make 16 None in
      let branch_value = ref None in
      (* the existing extension tail *)
      let etail = drop epath p in
      let eidx = Char.code etail.[0] in
      let erest = drop etail 1 in
      children.(eidx) <- Some (if String.length erest = 0 then child else save t (Ext (erest, child)));
      (* the new key tail *)
      let ntail = drop path p in
      if String.length ntail = 0 then branch_value := Some value
      else begin
        let nidx = Char.code ntail.[0] in
        children.(nidx) <- Some (save t (Leaf (drop ntail 1, value)))
      end;
      let branch = save t (Branch (children, !branch_value)) in
      let node = if p = 0 then branch else save t (Ext (String.sub path 0 p, branch)) in
      (node, true)
    end
  | Branch (children, bvalue) ->
    if String.length path = 0 then (save t (Branch (children, Some value)), bvalue = None)
    else begin
      let idx = Char.code path.[0] in
      let rest = drop path 1 in
      match children.(idx) with
      | None ->
        let children' = Array.copy children in
        children'.(idx) <- Some (save t (Leaf (rest, value)));
        (save t (Branch (children', bvalue)), true)
      | Some child ->
        let child', grew = insert_at t child rest value in
        let children' = Array.copy children in
        children'.(idx) <- Some child';
        (save t (Branch (children', bvalue)), grew)
    end

let insert t key value =
  let path = to_nibbles key in
  match t.root with
  | None -> { t with root = Some (save t (Leaf (path, value))); count = 1 }
  | Some h ->
    let root, grew = insert_at t h path value in
    { t with root = Some root; count = (if grew then t.count + 1 else t.count) }

let insert_batch t kvs = List.fold_left (fun t (k, v) -> insert t k v) t kvs
let insert_batch_at t ~epoch:_ kvs = (insert_batch t kvs, [])

let rec get_at t h path =
  match load t h with
  | Leaf (lpath, v) -> if String.equal lpath path then Some v else None
  | Ext (epath, child) ->
    let p = common_prefix_len epath path in
    if p = String.length epath then get_at t child (drop path p) else None
  | Branch (children, bvalue) ->
    if String.length path = 0 then bvalue
    else begin
      match children.(Char.code path.[0]) with
      | None -> None
      | Some child -> get_at t child (drop path 1)
    end

let get t key =
  match t.root with
  | None -> None
  | Some h -> get_at t h (to_nibbles key)

let get_with_proof t key =
  match t.root with
  | None -> (None, { Siri.nodes = [] })
  | Some h ->
    let nodes = ref [] in
    let rec go h path =
      let bytes = Object_store.get_exn t.store h in
      nodes := bytes :: !nodes;
      match decode_cached h bytes with
      | Leaf (lpath, v) -> if String.equal lpath path then Some v else None
      | Ext (epath, child) ->
        let p = common_prefix_len epath path in
        if p = String.length epath then go child (drop path p) else None
      | Branch (children, bvalue) ->
        if String.length path = 0 then bvalue
        else begin
          match children.(Char.code path.[0]) with
          | None -> None
          | Some child -> go child (drop path 1)
        end
    in
    let v = go h (to_nibbles key) in
    (v, { Siri.nodes = List.rev !nodes })

(* Batched lookup: key paths share every trie node above their divergence
   point, and each visited node's bytes are recorded exactly once — the
   decoded-node cache makes the repeated upper-node visits decode-free, so
   this is one traversal's work with a deduplicated frontier. *)
let prove_batch t keys =
  match t.root with
  | None -> (List.map (fun _ -> None) keys, { Siri.nodes = [] })
  | Some root ->
    let recorded = Hash.Table.create 64 in
    let nodes = ref [] in
    let lookup key =
      let rec go h path =
        let bytes = Object_store.get_exn t.store h in
        if not (Hash.Table.mem recorded h) then begin
          Hash.Table.replace recorded h ();
          nodes := bytes :: !nodes
        end;
        match decode_cached h bytes with
        | Leaf (lpath, v) -> if String.equal lpath path then Some v else None
        | Ext (epath, child) ->
          let p = common_prefix_len epath path in
          if p = String.length epath then go child (drop path p) else None
        | Branch (children, bvalue) ->
          if String.length path = 0 then bvalue
          else begin
            match children.(Char.code path.[0]) with
            | None -> None
            | Some child -> go child (drop path 1)
          end
      in
      go root (to_nibbles key)
    in
    let values = List.map lookup keys in
    (values, { Siri.nodes = List.rev !nodes })

(* A subtree whose keys all start with nibble-prefix [p] intersects the
   nibble range [lo, hi] iff p <= hi and (p >= lo or p is a prefix of lo). *)
let prefix_intersects p ~lo ~hi =
  String.compare p hi <= 0
  && (String.compare p lo >= 0
      || (String.length p <= String.length lo && String.equal p (String.sub lo 0 (String.length p))))

let range_generic ~load_bytes ~record t_root ~lo ~hi =
  let lo_n = to_nibbles lo and hi_n = to_nibbles hi in
  let acc = ref [] in
  let rec go h prefix =
    if prefix_intersects prefix ~lo:lo_n ~hi:hi_n then begin
      match load_bytes h with
      | None -> raise Not_found
      | Some bytes ->
        record bytes;
        (match decode_node bytes with
         | Leaf (lpath, v) ->
           let full = prefix ^ lpath in
           if String.compare lo_n full <= 0 && String.compare full hi_n <= 0 then
             acc := (of_nibbles full, v) :: !acc
         | Ext (epath, child) -> go child (prefix ^ epath)
         | Branch (children, bvalue) ->
           (if bvalue <> None && String.compare lo_n prefix <= 0 && String.compare prefix hi_n <= 0
            then acc := (of_nibbles prefix, Option.get bvalue) :: !acc);
           Array.iteri
             (fun i c ->
                match c with
                | None -> ()
                | Some child -> go child (prefix ^ String.make 1 (Char.chr i)))
             children)
    end
  in
  (match t_root with None -> () | Some h -> go h "");
  List.rev !acc

let range t ~lo ~hi =
  range_generic
    ~load_bytes:(fun h -> Object_store.get t.store h)
    ~record:(fun _ -> ())
    t.root ~lo ~hi

let range_with_proof t ~lo ~hi =
  (* each distinct node once, even if the walk reaches it from two places *)
  let recorded = Hashtbl.create 64 in
  let nodes = ref [] in
  let entries =
    range_generic
      ~load_bytes:(fun h -> Object_store.get t.store h)
      ~record:(fun bytes ->
          if not (Hashtbl.mem recorded bytes) then begin
            Hashtbl.replace recorded bytes ();
            nodes := bytes :: !nodes
          end)
      t.root ~lo ~hi
  in
  (entries, { Siri.nodes = List.rev !nodes })

let iter t f =
  match t.root with
  | None -> ()
  | Some h ->
    let rec go h prefix =
      match load t h with
      | Leaf (lpath, v) -> f (of_nibbles (prefix ^ lpath)) v
      | Ext (epath, child) -> go child (prefix ^ epath)
      | Branch (children, bvalue) ->
        (match bvalue with Some v -> f (of_nibbles prefix) v | None -> ());
        Array.iteri
          (fun i c ->
             match c with
             | None -> ()
             | Some child -> go child (prefix ^ String.make 1 (Char.chr i)))
          children
    in
    go h ""

(* --- Client-side verification --- *)

let verify_get ~digest ~key ~value proof =
  if Hash.is_null digest then value = None && proof.Siri.nodes = []
  else begin
    let index = Siri.proof_index proof in
    let rec go h path =
      match Hash.Map.find_opt h index with
      | None -> None
      | Some bytes ->
        (match try decode_node bytes with Wire.Malformed _ -> raise Not_found with
         | Leaf (lpath, v) -> Some (if String.equal lpath path then Some v else None)
         | Ext (epath, child) ->
           let p = common_prefix_len epath path in
           if p = String.length epath then go child (drop path p) else Some None
         | Branch (children, bvalue) ->
           if String.length path = 0 then Some bvalue
           else begin
             match children.(Char.code path.[0]) with
             | None -> Some None
             | Some child -> go child (drop path 1)
           end)
    in
    match go digest (to_nibbles key) with
    | Some found -> found = value
    | None | exception Not_found -> false
  end

(* Batched verification: proof nodes are hashed once and decoded at most once
   for the whole batch; each key's check is then a walk over decoded nodes. *)
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
           (match decode_node bytes with
            | node ->
              Hash.Table.replace decoded h node;
              Some node
            | exception Wire.Malformed _ -> None))
    in
    let check (key, value) =
      let rec go h path =
        match node_of h with
        | None -> None
        | Some (Leaf (lpath, v)) -> Some (if String.equal lpath path then Some v else None)
        | Some (Ext (epath, child)) ->
          let p = common_prefix_len epath path in
          if p = String.length epath then go child (drop path p) else Some None
        | Some (Branch (children, bvalue)) ->
          if String.length path = 0 then Some bvalue
          else begin
            match children.(Char.code path.[0]) with
            | None -> Some None
            | Some child -> go child (drop path 1)
          end
      in
      go digest (to_nibbles key) = Some value
    in
    List.for_all check items
  end

let extract_range ~digest ~lo ~hi proof =
  if Hash.is_null digest then (if proof.Siri.nodes = [] then Some [] else None)
  else begin
    let index = Siri.proof_index proof in
    match
      range_generic
        ~load_bytes:(fun h -> Hash.Map.find_opt h index)
        ~record:(fun _ -> ())
        (Some digest) ~lo ~hi
    with
    | found -> Some found
    | exception (Not_found | Wire.Malformed _) -> None
  end

let verify_range ~digest ~lo ~hi ~entries proof =
  extract_range ~digest ~lo ~hi proof = Some entries

(* Visit every node reachable from a root (compaction mark phase). *)
let iter_nodes store root visit =
  let seen = Hash.Table.create 256 in
  let rec go h =
    if not (Hash.is_null h) && not (Hash.Table.mem seen h) then begin
      Hash.Table.replace seen h ();
      visit h;
      match decode_node (Object_store.get_exn store h) with
      | Leaf _ -> ()
      | Ext (_, child) -> go child
      | Branch (children, _) -> Array.iter (function Some c -> go c | None -> ()) children
    end
  in
  go root
