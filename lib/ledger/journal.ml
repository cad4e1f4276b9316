open Spitz_crypto
open Spitz_storage

(* Hash-chained, append-only sequence of blocks with a Merkle tree over the
   block headers. The Merkle root (plus size) is the "digest" a client pins;
   inclusion proofs place a block under the digest, consistency proofs show a
   newer digest extends an older one. Full blocks are persisted in the object
   store under the hash of their encoding. *)

type slot = { hdr : Block.header; body : Hash.t (* content address of the encoded block *) }

type t = {
  store : Object_store.t;
  mutable slots : slot array; (* slots >= length are the dummy *)
  mutable length : int;
  tree : Spitz_adt.Merkle.t;  (* leaves: block header bytes *)
}

type digest = { root : Hash.t; size : int }

let dummy_slot =
  { hdr = { Block.height = -1; prev_hash = Hash.null; entries_root = Hash.null;
            index_root = Hash.null; entry_count = 0; time = 0 };
    body = Hash.null }

let create store =
  { store; slots = Array.make 16 dummy_slot; length = 0; tree = Spitz_adt.Merkle.create () }

let length t = t.length

let head t = if t.length = 0 then None else Some t.slots.(t.length - 1).hdr

let head_hash t =
  match head t with
  | None -> Hash.null
  | Some h -> Block.hash_header h

let digest t = { root = Spitz_adt.Merkle.root t.tree; size = t.length }

let digest_at t ~size =
  if size < 0 || size > t.length then invalid_arg "Journal.digest_at: out of range";
  { root = Spitz_adt.Merkle.root_at t.tree ~size; size }

let write_digest buf d =
  Wire.write_hash buf d.root;
  Wire.write_varint buf d.size

let read_digest r =
  let root = Wire.read_hash r in
  let size = Wire.read_varint r in
  { root; size }

(* Extend the chain with [block]; [body] is its content address when the
   encoding is already in the store (a reopen restoring its journal), so the
   restore takes no reference the snapshot did not record. *)
let append ?body t (block : Block.t) =
  let expected_prev = head_hash t in
  if not (Hash.equal block.header.prev_hash expected_prev) then
    invalid_arg "Journal.append: prev_hash does not extend the chain";
  if block.header.height <> t.length then invalid_arg "Journal.append: wrong height";
  if t.length = Array.length t.slots then begin
    let bigger = Array.make (2 * t.length) dummy_slot in
    Array.blit t.slots 0 bigger 0 t.length;
    t.slots <- bigger
  end;
  let buf = Wire.writer ~size:512 () in
  let body =
    match body with
    | Some body -> body
    | None ->
      Block.encode_into buf block;
      Object_store.put_writer t.store buf
  in
  t.slots.(t.length) <- { hdr = block.header; body };
  t.length <- t.length + 1;
  Wire.clear buf;
  Block.encode_header buf block.header;
  ignore (Spitz_adt.Merkle.add_leaf_hash t.tree (Wire.leaf_digest buf))

let header t height =
  if height < 0 || height >= t.length then invalid_arg "Journal.header: out of range";
  t.slots.(height).hdr

let block t height =
  if height < 0 || height >= t.length then invalid_arg "Journal.block: out of range";
  Block.decode (Object_store.get_exn t.store t.slots.(height).body)

let statements t height =
  if height < 0 || height >= t.length then invalid_arg "Journal.statements: out of range";
  Block.decode_statements (Object_store.get_exn t.store t.slots.(height).body)

let body_hash t height =
  if height < 0 || height >= t.length then invalid_arg "Journal.body_hash: out of range";
  t.slots.(height).body

let prove_inclusion t height = Spitz_adt.Merkle.prove_inclusion t.tree height

let prove_inclusion_at t height ~size =
  if size < 1 || size > t.length then invalid_arg "Journal.prove_inclusion_at: out of range";
  Spitz_adt.Merkle.prove_inclusion_at t.tree height ~size

let verify_inclusion ~digest ~height ~(header : Block.header) proof =
  let buf = Wire.writer ~size:128 () in
  Block.encode_header buf header;
  Spitz_adt.Merkle.verify_inclusion
    ~root:digest.root ~size:digest.size ~index:height
    ~leaf:(Wire.leaf_digest buf) proof

let prove_consistency t ~old_size = Spitz_adt.Merkle.prove_consistency t.tree ~old_size

let verify_consistency ~old_digest ~new_digest proof =
  Spitz_adt.Merkle.verify_consistency
    ~old_root:old_digest.root ~old_size:old_digest.size
    ~new_root:new_digest.root ~new_size:new_digest.size proof

(* Walk the chain and check every hash link; true iff intact. *)
let audit_chain t =
  let ok = ref true in
  for i = 0 to t.length - 1 do
    let h = t.slots.(i).hdr in
    if h.height <> i then ok := false;
    let expected_prev = if i = 0 then Hash.null else Block.hash_header t.slots.(i - 1).hdr in
    if not (Hash.equal h.prev_hash expected_prev) then ok := false
  done;
  !ok
