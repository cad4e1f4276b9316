open Spitz_crypto
open Spitz_storage
open Spitz_ledger

(* Baseline system emulating a commercial ledger database (paper
   section 6.1): newly inserted or modified records are collected into blocks
   and appended to a ledger implemented by a Merkle tree that shadows the
   nodes of a typical B+-tree; the appended blocks are also materialized into
   indexed views (current state and history) for fast query processing.

   The structural property the evaluation isolates: the ledger and the query
   indexes are *separate*. A query answers from a view; its proof must then
   be retrieved from the ledger by an independent per-record search of the
   shadow tree — so range queries pay one full proof traversal per resulting
   record, where Spitz's unified index amortizes proof nodes across the
   scanned range (section 6.2.2). *)

module Shadow = Spitz_adt.Merkle_bptree

type view_entry = {
  value_addr : Hash.t; (* content address of the value *)
  height : int;        (* journal block holding the record *)
  version : int;
}

type t = {
  store : Object_store.t;
  journal : Journal.t;
  mutable shadow : Shadow.t;                 (* the Merkle ledger, separate from views *)
  current : view_entry Spitz_index.Bptree.t; (* latest-state view *)
  history : view_entry Spitz_index.Bptree.t; (* all versions: key ^ \x00 ^ version *)
  by_txn : (int, string list) Hashtbl.t;     (* committed-metadata view *)
  mutable clock : int;
  mutable next_txn : int;
}

let create ?store () =
  let store = match store with Some s -> s | None -> Object_store.create () in
  {
    store;
    journal = Journal.create store;
    shadow = Shadow.create store;
    current = Spitz_index.Bptree.create ();
    history = Spitz_index.Bptree.create ();
    by_txn = Hashtbl.create 1024;
    clock = 0;
    next_txn = 0;
  }

let store t = t.store
let cardinal t = Spitz_index.Bptree.cardinal t.current

type digest = { shadow_root : Hash.t; journal_digest : Journal.digest }

let digest t = { shadow_root = Shadow.root_digest t.shadow; journal_digest = Journal.digest t.journal }

let history_key key version = Printf.sprintf "%s\x00%012d" key version

(* One transaction = one journal block. Each record lands in the shadow
   ledger tree and in every materialized view. *)
let put_batch t kvs =
  let txn_id = t.next_txn in
  t.next_txn <- txn_id + 1;
  t.clock <- t.clock + 1;
  let version = t.clock in
  let entries =
    List.map
      (fun (key, value) -> { Block.op = Block.Update; key; value_hash = Hash.of_string value; txn_id })
      kvs
  in
  (* the ledger: shadow tree over the record contents *)
  t.shadow <- List.fold_left (fun sh (key, value) -> Shadow.insert sh key value) t.shadow kvs;
  let height = Journal.length t.journal in
  let block =
    Block.create_rooted
      ~entries_root:(Spitz_adt.Merkle.root (Block.entries_merkle entries))
      ~height ~prev_hash:(Journal.head_hash t.journal)
      ~index_root:(Shadow.root_digest t.shadow) ~time:version ~entries ~statements:[]
  in
  Journal.append t.journal block;
  (* the views *)
  List.iter
    (fun (key, value) ->
       let value_addr = Object_store.put_blob t.store value in
       let ve = { value_addr; height; version } in
       Spitz_index.Bptree.insert t.current key ve;
       Spitz_index.Bptree.insert t.history (history_key key version) ve)
    kvs;
  Hashtbl.replace t.by_txn txn_id (List.map fst kvs);
  txn_id

let put t key value = put_batch t [ (key, value) ]

let get t key =
  match Spitz_index.Bptree.get t.current key with
  | None -> None
  | Some ve -> Object_store.get_blob t.store ve.value_addr

let get_version t key ~version =
  (* newest history entry at or below [version] *)
  let lo = history_key key 0 and hi = history_key key version in
  let best =
    Spitz_index.Bptree.fold_range t.history ~lo ~hi (fun _ ve _ -> Some ve) None
  in
  Option.bind best (fun ve -> Object_store.get_blob t.store ve.value_addr)

let range t ~lo ~hi =
  List.rev
    (Spitz_index.Bptree.fold_range t.current ~lo ~hi
       (fun key ve acc -> (key, Object_store.get_blob_exn t.store ve.value_addr) :: acc)
       [])

(* --- Verification: proofs fetched from the separate ledger, per record --- *)

type proof = {
  p_shadow : Spitz_adt.Siri.proof;  (* path in the shadow ledger tree *)
  p_header : Block.header;          (* block metadata, fetched from journal storage *)
  p_height : int;
  p_journal : Spitz_adt.Merkle.inclusion_proof;
}

(* The separate-ledger lookup the paper describes: after the view answers the
   query, search the shadow ledger for the record's digest path, and anchor
   the shadow root in the journal via the block that committed the record. *)
let prove t key =
  match Spitz_index.Bptree.get t.current key with
  | None -> None
  | Some ve ->
    let _, p_shadow = Shadow.get_with_proof t.shadow key in
    let block = Journal.block t.journal ve.height in
    Some
      {
        p_shadow;
        p_header = block.Block.header;
        p_height = ve.height;
        p_journal = Journal.prove_inclusion t.journal ve.height;
      }

let get_verified t key =
  match get t key with
  | None -> (None, None)
  | Some value -> (Some value, prove t key)

(* Range verification retrieves one proof per resulting record — the digest
   search "must be processed ... individually" (section 6.2.2). *)
let range_verified t ~lo ~hi =
  let results = range t ~lo ~hi in
  let proofs = List.filter_map (fun (key, _) -> prove t key) results in
  (results, proofs)

(* Client side: the value is committed iff the shadow path proves (key ->
   value) under the current shadow root, and the block that wrote it is in
   the journal. *)
(* Wire codec for the proof envelope, so baseline proofs can cross an
   untrusted boundary like Spitz's do. Decoding goes through [Wire.decode]:
   mutated bytes surface as [Wire.Malformed], never a stray exception. *)

let write_proof buf p =
  Wire.write_varint buf p.p_height;
  Block.encode_header buf p.p_header;
  Spitz_adt.Merkle.write_proof buf p.p_journal;
  Spitz_adt.Siri.write_proof buf p.p_shadow

let read_proof r =
  let p_height = Wire.read_varint r in
  let p_header = Block.decode_header r in
  let p_journal = Spitz_adt.Merkle.read_proof r in
  let p_shadow = Spitz_adt.Siri.read_proof r in
  { p_shadow; p_header; p_height; p_journal }

let encode_proof p =
  let buf = Wire.writer () in
  write_proof buf p;
  Wire.contents buf

let decode_proof data = Wire.decode "Baseline_db.decode_proof" read_proof data

let verify ~digest ~key ~value proof =
  Shadow.verify_get ~digest:digest.shadow_root ~key ~value:(Some value) proof.p_shadow
  && Journal.verify_inclusion ~digest:digest.journal_digest ~height:proof.p_height
       ~header:proof.p_header proof.p_journal

let verify_range ~digest results proofs =
  List.length results = List.length proofs
  && List.for_all2 (fun (key, value) proof -> verify ~digest ~key ~value proof) results proofs

let audit t = Journal.audit_chain t.journal
