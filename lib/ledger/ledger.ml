open Spitz_crypto
open Spitz_storage
open Spitz_adt

(* The Spitz ledger: a journal of blocks where each block stores a historical
   instance of a SIRI index over the entire dataset (paper section 5). The
   index instances share all untouched nodes (SIRI property), and because the
   index holds the values themselves, a read's proof is exactly the node path
   the read already traversed — the "unified index" that gives Spitz its
   performance edge in section 6.

   Functorized over the SIRI implementation so the ablation benches can run
   the same ledger over POS-tree, MPT, MBT, or the Merkle B+-tree. *)

(* Values are tagged so a tombstone is distinguishable from any user value. *)
let tag_value v = "V" ^ v
let tombstone = "T"

let untag = function
  | "" -> None
  | s when s.[0] = 'V' -> Some (String.sub s 1 (String.length s - 1))
  | s when s.[0] = 'T' -> None
  | _ -> None

type write = Put of string * string | Delete of string

module Make (Index : Siri.S) = struct
  (* An immutable view of the ledger as of one committed block — everything
     a read needs, captured in one record: the block header (whose
     index_root anchors the SIRI proofs), the journal inclusion proof and
     digest (precomputed, so readers never touch the journal's mutable
     Merkle tree), and the index instance itself. Published with a single
     [Atomic.set] as the last step of the serial commit section, so any
     domain that [Atomic.get]s it observes exactly one committed block
     state — never a block whose instance slot is not yet written, and
     never a header/digest pair straddling two commits. *)
  type snapshot = {
    s_height : int;                       (* the block this view pins *)
    s_header : Block.header;
    s_journal : Merkle.inclusion_proof;   (* of s_height in the digest's tree *)
    s_digest : Journal.digest;            (* what proofs verify against *)
    s_index : Index.t;
  }

  type t = {
    store : Object_store.t;
    journal : Journal.t;
    mutable instances : Index.t array; (* index instance per block; slot 0 unused until first commit *)
    mutable time : int;
    mutable next_txn : int;
    head : snapshot option Atomic.t;
    (* the latest committed view; what every concurrent read goes through *)
  }

  let create store =
    {
      store;
      journal = Journal.create store;
      instances = Array.make 16 (Index.create store);
      time = 0;
      next_txn = 0;
      head = Atomic.make None;
    }

  let store t = t.store
  let journal t = t.journal

  let snapshot t = Atomic.get t.head

  let snapshot_height s = s.s_height
  let snapshot_digest s = s.s_digest
  let snapshot_root s = s.s_header.Block.index_root

  (* [height]/[digest]/[current_index] answer from the published head, not
     the journal's mutable fields, so they are safe to call from reader
     domains while a commit is in flight (and identical to the journal's
     answer when no commit is racing). *)
  let height t = match Atomic.get t.head with None -> 0 | Some s -> s.s_height + 1
  let digest t =
    match Atomic.get t.head with
    | None -> Journal.digest t.journal
    | Some s -> s.s_digest

  let current_index t =
    match Atomic.get t.head with
    | None -> Index.create t.store
    | Some s -> s.s_index

  (* Build the view of block [height] from the journal. Walks the journal's
     mutable Merkle tree to build the inclusion proof, so calls must be
     serialized against commits. *)
  let pin_older t ~height =
    if height < 0 || height >= Journal.length t.journal then
      invalid_arg "Ledger.snapshot_at: out of range";
    (* anchor at the digest as of the pinned block, not the current head:
       a client that pinned {root; size = height + 1} must be able to verify
       this snapshot's proofs no matter how far the chain has since grown *)
    let size = height + 1 in
    {
      s_height = height;
      s_header = Journal.header t.journal height;
      s_journal = Journal.prove_inclusion_at t.journal height ~size;
      s_digest = Journal.digest_at t.journal ~size;
      s_index = t.instances.(height);
    }

  (* A pinned view of block [height]. At the published head's height it is
     that head — one atomic load, no lock, no proof rebuilt. An older block
     is built under [lock] when one is given (Db passes its commit lock).
     The returned snapshot itself is safe to read from any domain. *)
  let snapshot_at ?lock t ~height =
    match Atomic.get t.head with
    | Some s when s.s_height = height -> s
    | _ -> (
      match lock with
      | None -> pin_older t ~height
      | Some m -> Mutex.protect m (fun () -> pin_older t ~height))

  let fresh_txn t =
    let id = t.next_txn in
    t.next_txn <- id + 1;
    id

  (* Commit pipeline (one batch of writes -> one block; returns its height),
     split in two so a concurrent front-end can overlap the phases of
     different commits.

     [prepare] — stage 1: hash every written value — pure, independent per
     write and free of any ledger state, so many committers may prepare
     concurrently (no lock needed) while another commit's WAL write is in
     flight.

     [commit_prepared] — the serial section; the caller must serialize
     calls. Stage 2: assign the txn id and apply the writes to the SIRI
     index as one batch, in batch order, so txn ids, the index root and
     therefore every proof are bit-identical to some serial execution order
     regardless of how many committers prepared concurrently; only the
     block's final version of each touched node is stored. Stage 3: assemble the
     block and hash its entry leaves. *)
  type prepared = {
    p_writes : write list;
    p_statements : string list;
    p_value_hashes : Hash.t list;
  }

  let prepare ?(statements = []) writes =
    let value_hashes =
      List.map (function Put (_, v) -> Hash.of_string v | Delete _ -> Hash.null) writes
    in
    { p_writes = writes; p_statements = statements; p_value_hashes = value_hashes }

  let value_hashes p = p.p_value_hashes

  let tagged writes =
    List.map (function Put (k, v) -> (k, tag_value v) | Delete k -> (k, tombstone)) writes

  let commit_prepared t { p_writes = writes; p_statements = statements; p_value_hashes = value_hashes } =
    let txn_id = fresh_txn t in
    let height = Journal.length t.journal in
    let index, superseded = Index.insert_batch_at (current_index t) ~epoch:height (tagged writes) in
    let entries =
      List.map2
        (fun w value_hash ->
           match w with
           | Put (k, _) -> { Block.op = Block.Update; key = k; value_hash; txn_id }
           | Delete k -> { Block.op = Block.Delete; key = k; value_hash = Hash.null; txn_id })
        writes value_hashes
    in
    t.time <- t.time + 1;
    let block =
      Block.create_rooted
        ~entries_root:(Merkle.root (Block.entries_merkle entries))
        ~height ~prev_hash:(Journal.head_hash t.journal)
        ~index_root:(Index.root_digest index) ~time:t.time ~entries ~statements
    in
    Journal.append t.journal block;
    if height >= Array.length t.instances then begin
      let bigger = Array.make (2 * Array.length t.instances) index in
      Array.blit t.instances 0 bigger 0 (Array.length t.instances);
      t.instances <- bigger
    end;
    t.instances.(height) <- index;
    (* Publish the new head view in one atomic store. The inclusion proof is
       precomputed here, in the serial section, because the journal's Merkle
       tree is mutable — readers must never walk it while an append runs.
       This is also the fix for the torn read the old path had: readers used
       to load [Journal.length] and then [instances.(n-1)] separately, and a
       commit between the two loads (length bumped before the slot write)
       served them a stale instance under a new header. *)
    Atomic.set t.head
      (Some
         {
           s_height = height;
           s_header = block.Block.header;
           s_journal = Journal.prove_inclusion t.journal height;
           s_digest = Journal.digest t.journal;
           s_index = index;
         });
    (height, superseded)

  let commit t ?statements writes = fst (commit_prepared t (prepare ?statements writes))

  (* --- Reads --- *)

  type read_proof = {
    rp_height : int;              (* block whose index instance served the read *)
    rp_header : Block.header;
    rp_journal : Merkle.inclusion_proof;
    rp_digest : Journal.digest;   (* journal digest the proof is rooted in *)
    rp_index : Siri.proof;
  }

  (* --- Server-side proof cache --- *)

  (* Proof construction (the index-path half of a read proof) is memoized,
     keyed by [(index root, key set)]. The root is a content address, so an
     entry can never go stale: a commit produces a new root, and the new
     root is a new cache key — that *is* the invalidation protocol, with no
     commit-path bookkeeping. Entries under superseded roots keep serving
     snapshot readers pinned at those roots until LRU pressure ages them
     out. One cache per proof shape, shared by every ledger instance of
     this index family (sound by the same content-addressing argument). *)
  let get_proof_cache : (string option * Siri.proof) Node_cache.t =
    Node_cache.create ~capacity:8192 ()

  let batch_proof_cache : (string option list * Siri.proof) Node_cache.t =
    Node_cache.create ~capacity:2048 ()

  let range_proof_cache : ((string * string) list * Siri.proof) Node_cache.t =
    Node_cache.create ~capacity:512 ()

  let proof_cache_stats () =
    let a = Node_cache.stats get_proof_cache in
    let b = Node_cache.stats batch_proof_cache in
    let c = Node_cache.stats range_proof_cache in
    {
      Node_cache.hits = a.Node_cache.hits + b.Node_cache.hits + c.Node_cache.hits;
      misses = a.Node_cache.misses + b.Node_cache.misses + c.Node_cache.misses;
      evictions = a.Node_cache.evictions + b.Node_cache.evictions + c.Node_cache.evictions;
    }

  let reset_proof_cache_stats () =
    Node_cache.reset_stats get_proof_cache;
    Node_cache.reset_stats batch_proof_cache;
    Node_cache.reset_stats range_proof_cache

  let clear_proof_cache () =
    Node_cache.clear get_proof_cache;
    Node_cache.clear batch_proof_cache;
    Node_cache.clear range_proof_cache

  (* Cache keys hash a domain tag, the 32-byte root, and the length-prefixed
     key material — unambiguous, so two distinct key sets cannot collide
     except by breaking SHA-256. *)
  let len_pfx s = string_of_int (String.length s) ^ ":"

  let get_cache_key ~root key = Hash.of_strings [ "spitz.proof.get"; Hash.to_raw root; key ]

  let batch_cache_key ~root keys =
    Hash.of_strings
      ("spitz.proof.batch" :: Hash.to_raw root
       :: List.concat_map (fun k -> [ len_pfx k; k ]) keys)

  let range_cache_key ~root ~lo ~hi =
    Hash.of_strings [ "spitz.proof.range"; Hash.to_raw root; len_pfx lo; lo; len_pfx hi; hi ]

  (* --- Snapshot reads --- *)

  (* Every verified read is served from a pinned snapshot: the envelope is
     assembled purely from the snapshot's own fields (header, precomputed
     inclusion proof, digest), and the index traversal runs against its
     immutable instance — no journal state, no instance array, no lock. The
     proofs verify against [snapshot_digest s], the digest as of the pinned
     block. *)

  let snap_envelope s rp_index =
    {
      rp_height = s.s_height;
      rp_header = s.s_header;
      rp_journal = s.s_journal;
      rp_digest = s.s_digest;
      rp_index;
    }

  let snap_get s key =
    match Index.get s.s_index key with
    | None -> None
    | Some tagged -> untag tagged

  let snap_range s ~lo ~hi =
    List.filter_map
      (fun (k, tagged) -> Option.map (fun v -> (k, v)) (untag tagged))
      (Index.range s.s_index ~lo ~hi)

  let snap_get_with_proof s key =
    let tagged, rp_index =
      Node_cache.find_or_add get_proof_cache
        (get_cache_key ~root:s.s_header.Block.index_root key)
        ~load:(fun () -> Index.get_with_proof s.s_index key)
    in
    (Option.bind tagged untag, snap_envelope s rp_index)

  let snap_range_with_proof s ~lo ~hi =
    let visible, rp_index =
      Node_cache.find_or_add range_proof_cache
        (range_cache_key ~root:s.s_header.Block.index_root ~lo ~hi)
        ~load:(fun () ->
          let entries, rp_index = Index.range_with_proof s.s_index ~lo ~hi in
          let visible =
            List.filter_map
              (fun (k, tagged) -> Option.map (fun v -> (k, v)) (untag tagged))
              entries
          in
          (visible, rp_index))
    in
    (visible, snap_envelope s rp_index)

  (* Client side: check the block under the journal digest, then the value
     under the block's index root. A [None] result must be proven as either
     absence or a tombstone. The two halves are exposed separately so a
     verifier batching many reads anchored at the same digest can pay the
     journal-inclusion check once per block instead of once per key. *)
  let verify_read_anchor ~digest proof =
    Journal.verify_inclusion ~digest ~height:proof.rp_height ~header:proof.rp_header
      proof.rp_journal

  let verify_read_at_root ~key ~value proof =
    let index_root = proof.rp_header.Block.index_root in
    match value with
    | Some v -> Index.verify_get ~digest:index_root ~key ~value:(Some (tag_value v)) proof.rp_index
    | None ->
      Index.verify_get ~digest:index_root ~key ~value:None proof.rp_index
      || Index.verify_get ~digest:index_root ~key ~value:(Some tombstone) proof.rp_index

  let verify_read ~digest ~key ~value proof =
    verify_read_anchor ~digest proof && verify_read_at_root ~key ~value proof

  (* --- Batched reads --- *)

  (* One proof for a whole key set: a single journal inclusion proof anchors
     the block, and the index part is the deduplicated union of the keys'
     path nodes, gathered in one traversal ({!Siri.S.prove_batch}). *)
  type batch_read_proof = {
    brp_height : int;             (* block whose index instance served the reads *)
    brp_header : Block.header;
    brp_journal : Merkle.inclusion_proof;
    brp_digest : Journal.digest;  (* journal digest the proof is rooted in *)
    brp_index : Siri.proof;       (* one deduplicated proof covering every key *)
  }

  let snap_get_batch_with_proof s keys =
    let tagged, brp_index =
      Node_cache.find_or_add batch_proof_cache
        (batch_cache_key ~root:s.s_header.Block.index_root keys)
        ~load:(fun () -> Index.prove_batch s.s_index keys)
    in
    ( List.map (fun tv -> Option.bind tv untag) tagged,
      {
        brp_height = s.s_height;
        brp_header = s.s_header;
        brp_journal = s.s_journal;
        brp_digest = s.s_digest;
        brp_index;
      } )

  let verify_batch_anchor ~digest proof =
    Journal.verify_inclusion ~digest ~height:proof.brp_height ~header:proof.brp_header
      proof.brp_journal

  (* A [None] claim is "absent OR tombstoned". The fast path reads every
     [None] as genuine absence and settles the whole batch in one
     {!Siri.S.verify_get_batch} call — a single proof-index build (each node
     hashed once) for all keys. Only a batch whose [None] keys include
     tombstones misses it and falls back to the per-key disjunction. *)
  let verify_batch_at_root ~items proof =
    let index_root = proof.brp_header.Block.index_root in
    let as_absent = List.map (fun (k, v) -> (k, Option.map tag_value v)) items in
    Index.verify_get_batch ~digest:index_root ~items:as_absent proof.brp_index
    || begin
      let present = List.filter (fun (_, v) -> v <> None) as_absent in
      let absent = List.filter_map (fun (k, v) -> if v = None then Some k else None) items in
      (present = [] || Index.verify_get_batch ~digest:index_root ~items:present proof.brp_index)
      && List.for_all
           (fun k ->
              Index.verify_get_batch ~digest:index_root ~items:[ (k, None) ] proof.brp_index
              || Index.verify_get_batch ~digest:index_root ~items:[ (k, Some tombstone) ]
                   proof.brp_index)
           absent
    end

  let verify_batch_read ~digest ~items proof =
    verify_batch_anchor ~digest proof && verify_batch_at_root ~items proof

  let verify_range_at_root ~lo ~hi ~entries proof =
    let index_root = proof.rp_header.Block.index_root in
    (* Recompute the committed (tagged) range contents from the proof, drop
       tombstones, and require exact equality with the claimed entries — this
       is sound against both fabricated rows and omissions. *)
    match Index.extract_range ~digest:index_root ~lo ~hi proof.rp_index with
    | None -> false
    | Some committed ->
      let visible =
        List.filter_map (fun (k, tagged) -> Option.map (fun v -> (k, v)) (untag tagged))
          committed
      in
      visible = entries

  let verify_range ~digest ~lo ~hi ~entries proof =
    verify_read_anchor ~digest proof && verify_range_at_root ~lo ~hi ~entries proof

  (* --- Write receipts --- *)

  type write_receipt = {
    wr_height : int;
    wr_header : Block.header;
    wr_entry : Block.entry;
    wr_entry_index : int;
    wr_entry_proof : Merkle.inclusion_proof;
    wr_journal : Merkle.inclusion_proof;
    wr_digest : Journal.digest;
  }

  let write_receipts t ~height =
    let block = Journal.block t.journal height in
    let tree = Block.entries_merkle block.entries in
    let journal_proof = Journal.prove_inclusion t.journal height in
    let digest = Journal.digest t.journal in
    List.mapi
      (fun i entry ->
         {
           wr_height = height;
           wr_header = block.header;
           wr_entry = entry;
           wr_entry_index = i;
           wr_entry_proof = Merkle.prove_inclusion tree i;
           wr_journal = journal_proof;
           wr_digest = digest;
         })
      block.entries

  let verify_write_anchor ~digest receipt =
    Journal.verify_inclusion ~digest ~height:receipt.wr_height ~header:receipt.wr_header
      receipt.wr_journal

  let verify_write_entry receipt =
    Merkle.verify_inclusion
      ~root:receipt.wr_header.Block.entries_root
      ~size:receipt.wr_header.Block.entry_count
      ~index:receipt.wr_entry_index
      ~leaf:(Block.entry_leaf_into (Wire.writer ~size:64 ()) receipt.wr_entry)
      receipt.wr_entry_proof

  let verify_write ~digest receipt =
    verify_write_anchor ~digest receipt && verify_write_entry receipt

  let audit t = Journal.audit_chain t.journal

  (* Per-block audit: one multiproof covering {e every} entry of the block
     checks them all against the header's entries root at once (the
     full-range multiproof is empty — the root is recomputed from the entries
     alone), and one journal inclusion proof anchors the header — replacing
     [entry_count] separate receipt verifications. *)
  let audit_block t ~height =
    let block = Journal.block t.journal height in
    let n = List.length block.entries in
    let tree = Block.entries_merkle block.entries in
    let proof = Merkle.prove_multi tree (List.init n (fun i -> i)) in
    let scratch = Wire.writer ~size:64 () in
    let leaves = List.mapi (fun i e -> (i, Block.entry_leaf_into scratch e)) block.entries in
    block.header.Block.entry_count = n
    && Merkle.verify_multi ~root:block.header.Block.entries_root ~size:n ~leaves proof
    && Journal.verify_inclusion ~digest:(Journal.digest t.journal) ~height ~header:block.header
         (Journal.prove_inclusion t.journal height)

  (* --- Wire codecs for proof envelopes --- *)

  let write_read_proof buf p =
    Wire.write_varint buf p.rp_height;
    Block.encode_header buf p.rp_header;
    Merkle.write_proof buf p.rp_journal;
    Journal.write_digest buf p.rp_digest;
    Siri.write_proof buf p.rp_index

  let read_read_proof r =
    let rp_height = Wire.read_varint r in
    let rp_header = Block.decode_header r in
    let rp_journal = Merkle.read_proof r in
    let rp_digest = Journal.read_digest r in
    let rp_index = Siri.read_proof r in
    { rp_height; rp_header; rp_journal; rp_digest; rp_index }

  let write_batch_proof buf p =
    Wire.write_varint buf p.brp_height;
    Block.encode_header buf p.brp_header;
    Merkle.write_proof buf p.brp_journal;
    Journal.write_digest buf p.brp_digest;
    Siri.write_proof buf p.brp_index

  let read_batch_proof r =
    let brp_height = Wire.read_varint r in
    let brp_header = Block.decode_header r in
    let brp_journal = Merkle.read_proof r in
    let brp_digest = Journal.read_digest r in
    let brp_index = Siri.read_proof r in
    { brp_height; brp_header; brp_journal; brp_digest; brp_index }

  let write_receipt_wire buf w =
    Wire.write_varint buf w.wr_height;
    Block.encode_header buf w.wr_header;
    Block.encode_entry buf w.wr_entry;
    Wire.write_varint buf w.wr_entry_index;
    Merkle.write_proof buf w.wr_entry_proof;
    Merkle.write_proof buf w.wr_journal;
    Journal.write_digest buf w.wr_digest

  let read_receipt_wire r =
    let wr_height = Wire.read_varint r in
    let wr_header = Block.decode_header r in
    let wr_entry = Block.decode_entry r in
    let wr_entry_index = Wire.read_varint r in
    let wr_entry_proof = Merkle.read_proof r in
    let wr_journal = Merkle.read_proof r in
    let wr_digest = Journal.read_digest r in
    { wr_height; wr_header; wr_entry; wr_entry_index; wr_entry_proof; wr_journal; wr_digest }

  let encode_with write v =
    let buf = Wire.writer () in
    write buf v;
    Wire.contents buf

  (* [Wire.decode] requires full consumption and funnels every exception a
     mutated envelope can provoke into [Wire.Malformed] — the proof fuzzer
     feeds these decoders adversarial bytes and asserts exactly that. *)
  let decode_with name read data = Wire.decode name read data

  let encode_read_proof p = encode_with write_read_proof p
  let decode_read_proof data = decode_with "Ledger.decode_read_proof" read_read_proof data
  let encode_batch_proof p = encode_with write_batch_proof p
  let decode_batch_proof data = decode_with "Ledger.decode_batch_proof" read_batch_proof data
  let encode_receipt w = encode_with write_receipt_wire w
  let decode_receipt data = decode_with "Ledger.decode_receipt" read_receipt_wire data

  (* --- retention --- *)

  (* Visit every node of the index instance committed to by [root]: a
     retention mark keeps whole instances, so an instance whose root is
     stored is readable in full. *)
  let mark_instance t root visit = Index.iter_nodes t.store root visit

  (* --- persistence --- *)

  let body_hashes t =
    List.init (Journal.length t.journal) (fun h -> Journal.body_hash t.journal h)

  (* Reopen a ledger whose blocks live in [store], given the body hashes in
     height order. The chain is re-validated on append; index instances are
     reopened at the roots the block headers commit to (an instance a
     retention mark dropped stays unreadable). Instance cardinalities are
     not restored: nothing reads a ledger instance's count. [on_block] sees
     each block once it is appended. *)
  let restore ~on_block store bodies =
    let t = create store in
    List.iter
      (fun body ->
         let block = Block.decode (Object_store.get_exn store body) in
         let height = Journal.length t.journal in
         Journal.append ~body t.journal block;
         let index = Index.at_root store block.Block.header.Block.index_root ~count:0 in
         if height >= Array.length t.instances then begin
           let bigger = Array.make (2 * Array.length t.instances) index in
           Array.blit t.instances 0 bigger 0 (Array.length t.instances);
           t.instances <- bigger
         end;
         t.instances.(height) <- index;
         t.time <- max t.time block.Block.header.Block.time;
         (* every commit consumes exactly one txn id, an empty block too:
            an entry carries it, and a block without entries still moves
            the counter on — or a log re-run after a snapshot that ends in
            an empty block would assign every later commit a shifted id *)
         t.next_txn <-
           (match block.entries with e :: _ -> e.Block.txn_id + 1 | [] -> t.next_txn + 1);
         on_block height block)
      bodies;
    (* publish the head view the replayed chain ends at *)
    (match Journal.length t.journal with
     | 0 -> ()
     | n -> Atomic.set t.head (Some (pin_older t ~height:(n - 1))));
    t
end

module Default = Make (Merkle_bptree)
