open Spitz_crypto
open Spitz_storage

(* A ledger block tracks one committed batch: the record modifications, the
   query statements that caused them, and the root of the index instance over
   the entire dataset as of this block (paper section 5, "Ledger"). *)

type op = Insert | Update | Delete

type entry = {
  op : op;
  key : string;
  value_hash : Hash.t; (* hash of the written value; null for deletes *)
  txn_id : int;
}

type header = {
  height : int;
  prev_hash : Hash.t;        (* hash of the previous block header; null for genesis *)
  entries_root : Hash.t;     (* Merkle root over the block's entries *)
  index_root : Hash.t;       (* root of the SIRI index instance as of this block *)
  entry_count : int;
  time : int;                (* logical commit timestamp *)
}

type t = {
  header : header;
  entries : entry list;
  statements : string list;  (* query statements recorded for audit *)
}

let op_to_char = function Insert -> 'I' | Update -> 'U' | Delete -> 'D'

let op_of_char = function
  | 'I' -> Insert
  | 'U' -> Update
  | 'D' -> Delete
  | c -> raise (Wire.Malformed (Printf.sprintf "Block: bad op %C" c))

let encode_entry buf e =
  Wire.write_byte buf (op_to_char e.op);
  Wire.write_string buf e.key;
  Wire.write_hash buf e.value_hash;
  Wire.write_varint buf e.txn_id

let decode_entry r =
  let op = op_of_char (Wire.read_byte r) in
  let key = Wire.read_string r in
  let value_hash = Wire.read_hash r in
  let txn_id = Wire.read_varint r in
  { op; key; value_hash; txn_id }

(* Leaf hashes are streamed straight out of the encoder's buffer
   ([Wire.leaf_digest]), one scratch writer reused for the whole batch. *)
let entry_leaf_into buf e =
  Wire.clear buf;
  encode_entry buf e;
  Wire.leaf_digest buf

let entries_merkle entries =
  let buf = Wire.writer ~size:64 () in
  Spitz_adt.Merkle.of_leaf_hashes (List.map (entry_leaf_into buf) entries)

let encode_header buf h =
  Wire.write_varint buf h.height;
  Wire.write_hash buf h.prev_hash;
  Wire.write_hash buf h.entries_root;
  Wire.write_hash buf h.index_root;
  Wire.write_varint buf h.entry_count;
  Wire.write_varint buf h.time

let decode_header r =
  let height = Wire.read_varint r in
  let prev_hash = Wire.read_hash r in
  let entries_root = Wire.read_hash r in
  let index_root = Wire.read_hash r in
  let entry_count = Wire.read_varint r in
  let time = Wire.read_varint r in
  { height; prev_hash; entries_root; index_root; entry_count; time }

let hash_header h =
  let buf = Wire.writer ~size:128 () in
  encode_header buf h;
  Wire.digest buf

let encode_into buf t =
  encode_header buf t.header;
  Wire.write_list buf encode_entry t.entries;
  Wire.write_list buf Wire.write_string t.statements

let encode t =
  let buf = Wire.writer () in
  encode_into buf t;
  Wire.contents buf

let decode data =
  Wire.decode "Block.decode"
    (fun r ->
       let header = decode_header r in
       let entries = Wire.read_list r decode_entry in
       let statements = Wire.read_list r Wire.read_string in
       { header; entries; statements })
    data

(* The statements of an encoded block, read past its header and entries
   without building either. *)
let decode_statements data =
  Wire.decode "Block.decode_statements"
    (fun r ->
       ignore (Wire.read_varint r : int);
       Wire.skip r (3 * Hash.size);
       ignore (Wire.read_varint r : int);
       ignore (Wire.read_varint r : int);
       for _ = 1 to Wire.read_count r do
         ignore (op_of_char (Wire.read_byte r));
         Wire.skip r (Wire.read_varint r);
         Wire.skip r Hash.size;
         ignore (Wire.read_varint r : int)
       done;
       Wire.read_list r Wire.read_string)
    data

let create_rooted ~entries_root ~height ~prev_hash ~index_root ~time ~entries ~statements =
  { header = { height; prev_hash; entries_root; index_root; entry_count = List.length entries; time };
    entries; statements }

let create ~height ~prev_hash ~index_root ~time ~entries ~statements =
  create_rooted ~entries_root:(Spitz_adt.Merkle.root (entries_merkle entries))
    ~height ~prev_hash ~index_root ~time ~entries ~statements
