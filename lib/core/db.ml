open Spitz_storage
open Spitz_ledger

(* The Spitz database facade: the public API the served path runs on.

   Reads and writes follow the section 5.1 pipeline. A write (1) arrives at
   the request handler, (2) enters the ledger through [commit] — the one way
   a block is made — which updates the unified index and obtains the proof,
   (3) is applied to the cell store by [apply_write], and
   (4) returns with its proof once the write-ahead log holds it. A point
   read by key, [get_at] and [history] answer from the cell store, a hash
   table of cells. A range — the SQL layer's column scans included — and
   every verified read answer from a pinned snapshot of the ledger's
   unified index, which keeps keys in order; the proof is the same
   traversal that located the data, which is the efficiency argument of
   section 6.2.1. *)

module L = Ledger.Default
module V = Verifier.Default

type t = {
  store : Object_store.t;
  cells : Cell_store.t;
  ledger : L.t;
  column : string;               (* column id for the KV surface *)
  commit_lock : Mutex.t;
  (* serializes the ledger/cell-store mutation section of [commit]; value
     hashing before it and the WAL durability wait after it run outside the
     lock, so concurrent committers overlap CPU and I/O *)
  mutable log : log option;
  (* the durable handle's write-ahead log, attached by [open_durable] once
     replay is done: [commit] submits each block's record to it *)
  horizon : int Atomic.t;
  (* the lowest height whose index instance, and every later one, is in the
     store: set when a reopen restores a checkpoint's snapshot, raised on a
     durable handle by every commit past the retention window; a verified
     read pinned below it has nothing to read *)
  mutable retention : retention option;
  (* a durable handle's reclamation of superseded index nodes; [None] on an
     in-memory database, which keeps every instance *)
}

and retention = {
  filed : (int * Spitz_crypto.Hash.t list) Queue.t;
  (* the stored nodes each block superseded, under its height, oldest
     first; only [commit] touches it, under [commit_lock] *)
  pinned : int Atomic.t;
  (* the head height a running checkpoint has pinned, [max_int] when none:
     the horizon stays at or below it until the checkpoint has written it *)
  mutable reclaimed : int; (* nodes deleted so far *)
  mutable freed : int; (* node bytes deleted since the last full collection *)
  mutable collect_at : int; (* [freed] at which to collect: a third of the heap *)
}

and log = {
  wal : Wal.t;
  record : Wire.writer;
  (* one reused encode buffer; only [commit] touches it, under
     [commit_lock], and [Wal.submit_slice] copies it out before returning *)
}

let of_ledger ~store ~column ~cells ledger =
  {
    store;
    cells;
    ledger;
    column;
    commit_lock = Mutex.create ();
    log = None;
    horizon = Atomic.make 0;
    retention = None;
  }

(* The cell-store column of the KV surface. A database records its column
   in [meta] and the snapshot header, and a reopen reads it back from
   there. *)
let kv_column = "v"

let open_db ?store () =
  let store = match store with Some s -> s | None -> Object_store.create () in
  of_ledger ~store ~column:kv_column ~cells:(Cell_store.create ~store ()) (L.create store)

let store t = t.store
let ledger t = t.ledger
let cells t = t.cells

let cell_count t = Cell_store.cell_count t.cells
(* total cell versions, not distinct keys *)

(* --- Writes --- *)

(* The cell a ledger key lives in. Schema keys carry their column before a
   ['\x1f'] separator ([table.col\x1fpk]); every other key is a KV key in
   the database's default column. The live commit, the journal replay and
   the KV reads all go through this one rule, so a key reads the same before
   and after a reload. *)
let cell_in ~column key =
  match String.index_opt key '\x1f' with
  | Some i -> (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | None -> (column, key)

let cell_of_key t key = cell_in ~column:t.column key

(* The one name of the cell [key] lives in: a KV key [pk] and the schema
   key [column\x1fpk] of the default column are the same cell. *)
let cell_name t key = if String.contains key '\x1f' then key else t.column ^ "\x1f" ^ key

(* The SQL catalog's table specs are ledger metadata, read back from the
   ledger itself; they have no cell. *)
let catalog_column = "_catalog"

(* One block write's effect on the cell store: a put appends a cell
   version, a delete appends a tombstone. A put carries its value's hash —
   the block entry's [value_hash] — so the value is hashed once per write,
   not again by the cell store and the object store. *)
let apply_write t ~height key value =
  let column, pk = cell_of_key t key in
  match value with
  | _ when String.equal column catalog_column -> ()
  | None -> Cell_store.delete_cell t.cells ~column ~pk ~ts:height
  | Some (value, vhash) -> Cell_store.write_cell t.cells ~column ~pk ~ts:height ~vhash value

(* One block is one state transition: when a batch writes the same cell more
   than once, the block's final state for that cell is the last write (the
   ledger index folds the batch in order). Only that write may land in the
   cell store — it orders same-timestamp versions by value hash, not write
   order, so asking it to break the tie reads back an arbitrary write of
   the batch. A reopen keeps the same rule by walking
   each block last to first ([rebuild]). *)
let last_write_per_key key_of items =
  let seen = Hashtbl.create 16 in
  List.rev
    (List.fold_left
       (fun acc item ->
          let key = key_of item in
          if Hashtbl.mem seen key then acc
          else begin
            Hashtbl.add seen key ();
            item :: acc
          end)
       [] (List.rev items))

(* One write-ahead log record is one commit's batch: the block height, the
   statements, the puts and deletes in batch order, and the content address
   of the block body the commit produced. Replay re-runs the batch through
   [commit] and checks that it produced the same body. *)
let encode_wal_record buf ~height ~statements ~body writes =
  Wire.clear buf;
  Wire.write_varint buf height;
  Wire.write_list buf Wire.write_string statements;
  Wire.write_list buf
    (fun buf -> function
       | Ledger.Put (k, v) ->
         Wire.write_byte buf 'P';
         Wire.write_string buf k;
         Wire.write_string buf v
       | Ledger.Delete k ->
         Wire.write_byte buf 'D';
         Wire.write_string buf k)
    writes;
  Wire.write_hash buf body

let decode_wal_record data =
  Wire.decode "wal record"
    (fun r ->
       let height = Wire.read_varint r in
       let statements = Wire.read_list r Wire.read_string in
       let writes =
         Wire.read_list r (fun r ->
             match Wire.read_byte r with
             | 'P' ->
               let k = Wire.read_string r in
               Ledger.Put (k, Wire.read_string r)
             | 'D' -> Ledger.Delete (Wire.read_string r)
             | c -> raise (Wire.Malformed (Printf.sprintf "write tag %C" c)))
       in
       let body = Wire.read_hash r in
       (height, statements, writes, body))
    data

(* The general write path and the only way a block enters the ledger: one
   batch of puts and deletes, one ledger block. Deletes land as tombstones
   in both the ledger index and the cell store, so the verifiable surface
   and the query surface agree on absence.

   Thread-safe: any number of domains may commit concurrently. The pipeline
   has three stages per commit — (1) value hashing ([L.prepare]), pure and
   lock-free, so it overlaps with anything, including the WAL write of an
   earlier commit; (2) the serial section under [commit_lock]: read-set
   validation, txn-id assignment, SIRI index update, block assembly,
   journal append, cell-store apply, and (when a WAL is attached) a
   non-blocking [Wal.submit] of the batch's record; (3) the durability wait, after the lock is released —
   committer B enters its serial section while committer A is still
   fsyncing, and A's WAL leader coalesces every record submitted meanwhile.
   Blocks enter the ledger, and records the log, in the order the lock is
   acquired, so digests, proofs and audits are byte-identical to that
   serial order. *)
(* Index instances a durable handle keeps: the head's and the 63 before
   it, plus any a running checkpoint has pinned. *)
let retained_instances = 64

(* The bytes reclaimed since the last full collection that call for the
   next one: a third of the heap. Half let the served heap peak about a
   fifth higher; a quarter cost a fifth more commit time for the heap it
   saved. *)
let collect_threshold () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) / 3

(* After block [height] committed: file the nodes it superseded, raise the
   horizon to keep [retained_instances] (no higher than a checkpoint's
   pin), then delete what every block the horizon has passed superseded.
   A node block b superseded is in instance b - 1 and in none from b on
   unless created again, so it goes once the horizon reaches b — and
   [Object_store.reclaim_node] keeps it if a block from b on created it
   again, or if anything but an index put stored the same bytes. The work
   is the nodes this commit filed and those it deletes, not the history.

   A deleted node is garbage the heap can reuse only once the major GC has
   finished the cycle under way and one more: an allocation-paced cycle
   takes a few hundred commits, and until then every commit's new nodes
   grow the heap as if nothing had been freed. So once the bytes deleted
   since the last full collection reach a third of the heap, a full major
   collection makes them reusable now. Its cost is one pass over the heap
   per third of a heap freed — constant per freed byte, and paid by one
   commit in hundreds, not by each. Caller holds [commit_lock]. *)
let retire t r ~height superseded =
  if superseded <> [] then Queue.add (height, superseded) r.filed;
  let target = min (height + 1 - retained_instances) (Atomic.get r.pinned) in
  if target > Atomic.get t.horizon then Atomic.set t.horizon target;
  let horizon = Atomic.get t.horizon in
  while (not (Queue.is_empty r.filed)) && fst (Queue.peek r.filed) <= horizon do
    let b, nodes = Queue.pop r.filed in
    List.iter
      (fun h ->
         let freed = Object_store.reclaim_node t.store h ~superseded_at:b in
         if freed > 0 then begin
           r.reclaimed <- r.reclaimed + 1;
           r.freed <- r.freed + freed
         end)
      nodes
  done;
  if r.freed >= r.collect_at then begin
    Gc.full_major ();
    r.freed <- 0;
    r.collect_at <- collect_threshold ()
  end

type retention_stats = { index_nodes : int; filed_nodes : int; reclaimed_nodes : int }

let retention_stats t =
  Mutex.protect t.commit_lock (fun () ->
      let filed, reclaimed =
        match t.retention with
        | None -> (0, 0)
        | Some r -> (Queue.fold (fun acc (_, hs) -> acc + List.length hs) 0 r.filed, r.reclaimed)
      in
      { index_nodes = Object_store.index_node_count t.store;
        filed_nodes = filed;
        reclaimed_nodes = reclaimed })

exception Conflict of { key : string; height : int }

(* The cells a read set names, checked before the commit lock: the SQL
   catalog has no cell to validate against. *)
let read_cells t reads =
  List.map
    (fun (key, height) ->
       let column, pk = cell_of_key t key in
       if String.equal column catalog_column then
         invalid_arg ("Db.commit: a read set cannot name the catalog key " ^ key);
       (key, column, pk, height))
    reads

(* Optimistic validation (section 5.2) on the multiversion cell store: a
   read at pin height h still holds if no block above h wrote the key.
   Caller holds [commit_lock], so no commit lands between the check and the
   block. *)
let validate t reads =
  List.iter
    (fun (key, column, pk, read_at) ->
       match Cell_store.newest_ts t.cells ~column ~pk with
       | Some height when height > read_at -> raise (Conflict { key; height })
       | _ -> ())
    reads

let commit t ?(statements = []) ?(reads = []) writes =
  let reads = read_cells t reads in
  let prepared = L.prepare ~statements writes in
  Mutex.lock t.commit_lock;
  let height, ticket =
    match
      (* a stopped log acknowledges nothing more: fail before the block *)
      Option.iter (fun log -> Wal.check_failed log.wal) t.log;
      validate t reads;
      let height, superseded = L.commit_prepared t.ledger prepared in
      List.iter
        (function
          | Ledger.Put (key, value), vhash -> apply_write t ~height key (Some (value, vhash))
          | Ledger.Delete key, _ -> apply_write t ~height key None)
        (last_write_per_key
           (function Ledger.Put (k, _), _ | Ledger.Delete k, _ -> cell_name t k)
           (List.combine writes (L.value_hashes prepared)));
      let ticket =
        match t.log with
        | None -> None
        | Some log ->
          Fault.hit "commit.before_wal";
          encode_wal_record log.record ~height ~statements
            ~body:(Journal.body_hash (L.journal t.ledger) height)
            writes;
          let ticket = Wal.submit_slice log.wal (Wire.view log.record) in
          Fault.hit "commit.after_submit";
          Some (log.wal, ticket)
      in
      (* only a commit that got this far retires anything *)
      Option.iter (fun r -> retire t r ~height superseded) t.retention;
      (height, ticket)
    with
    | result ->
      Mutex.unlock t.commit_lock;
      result
    | exception e ->
      Mutex.unlock t.commit_lock;
      raise e
  in
  (match ticket with
   | None -> ()
   | Some (wal, ticket) ->
     Wal.wait wal ticket;
     Fault.hit "commit.acked");
  height

let put_batch t ?statements kvs =
  commit t ?statements (List.map (fun (k, v) -> Ledger.Put (k, v)) kvs)

let put t key value = put_batch t [ (key, value) ]

let delete t key = commit t [ Ledger.Delete key ]

let put_verified t key value =
  let height = put t key value in
  match L.write_receipts t.ledger ~height with
  | [ receipt ] -> (height, receipt)
  | receipts -> (height, List.hd receipts)

(* --- Reads --- *)

let get t key =
  let column, pk = cell_of_key t key in
  Cell_store.read_value t.cells ~column ~pk

let get_at t ~height key =
  let column, pk = cell_of_key t key in
  Cell_store.read_value ~ts:height t.cells ~column ~pk

let history t key =
  let column, pk = cell_of_key t key in
  Cell_store.versions t.cells ~column ~pk

(* --- Snapshot reads: the concurrent read path ---

   A snapshot pins one committed block state: the ledger's atomically
   published head view. Everything below runs without [commit_lock]: the
   view is an immutable record, and the store/cache layers are domain-safe,
   so any number of reader domains serve verified gets and scans while
   committers append blocks. *)

(* A pinned view and the horizon of the database it came from: on a
   durable handle a commit can reclaim the pinned instance's nodes while a
   read walks it, and the read then answers [Below_horizon] rather than
   "not found". *)
type snapshot = { view : L.snapshot; floor : int Atomic.t }

exception Below_horizon of { height : int; horizon : int }

let horizon t = Atomic.get t.horizon

let snapshot ?height t =
  let pinned view = Some { view; floor = t.horizon } in
  match height with
  | None -> Option.bind (L.snapshot t.ledger) pinned
  | Some height ->
    let horizon = Atomic.get t.horizon in
    if height < horizon then raise (Below_horizon { height; horizon });
    (* the head is pinned lock-free; an older block walks the journal's
       mutable tree under the commit lock *)
    pinned (L.snapshot_at ~lock:t.commit_lock t.ledger ~height)

module Snapshot = struct
  let height s = L.snapshot_height s.view
  let digest s = L.snapshot_digest s.view
  let index_root s = L.snapshot_root s.view

  let valid t s = height s >= Atomic.get t.horizon

  (* A node missing under a pin the horizon has since passed was
     reclaimed mid-read; under a retained pin it is damage, and stays
     [Not_found]. *)
  let reclaimed s =
    let horizon = Atomic.get s.floor in
    let height = height s in
    if height < horizon then Below_horizon { height; horizon } else Not_found

  let get s key = try L.snap_get s.view key with Not_found -> raise (reclaimed s)

  let get_verified s key =
    try L.snap_get_with_proof s.view key with Not_found -> raise (reclaimed s)

  let get_batch_verified s keys =
    try L.snap_get_batch_with_proof s.view keys with Not_found -> raise (reclaimed s)

  let range s ~lo ~hi = try L.snap_range s.view ~lo ~hi with Not_found -> raise (reclaimed s)

  let range_verified s ~lo ~hi =
    try L.snap_range_with_proof s.view ~lo ~hi with Not_found -> raise (reclaimed s)
end

(* Reads at the head: pin the latest committed state, then read it. On an
   empty database there is nothing to pin and nothing to prove. A head the
   retention window passed mid-read is read again at the new head. *)
let rec at_head t ~empty read =
  match snapshot t with
  | None -> empty
  | Some s -> ( try read s with Below_horizon _ -> at_head t ~empty read)

let get_verified t key =
  at_head t ~empty:(None, None) (fun s ->
      let value, proof = Snapshot.get_verified s key in
      (value, Some proof))

let get_batch_verified t keys =
  at_head t ~empty:(List.map (fun _ -> None) keys, None) (fun s ->
      let values, proof = Snapshot.get_batch_verified s keys in
      (values, Some proof))

let range t ~lo ~hi = at_head t ~empty:[] (fun s -> Snapshot.range s ~lo ~hi)

let range_verified t ~lo ~hi =
  at_head t ~empty:([], None) (fun s ->
      let entries, proof = Snapshot.range_verified s ~lo ~hi in
      (entries, Some proof))

let proof_cache_stats () = L.proof_cache_stats ()
let reset_proof_cache_stats () = L.reset_proof_cache_stats ()

(* --- Verification surface --- *)

let digest t = L.digest t.ledger

(* The journal's Merkle tree grows inside [commit]'s serial section before
   the head digest is published, so a proof built from it outside the
   commit lock can cover a block the digest read beside it does not. Both
   are read under the lock. *)
let consistency t ~old_size =
  Mutex.protect t.commit_lock (fun () ->
      Journal.prove_consistency (L.journal t.ledger) ~old_size)

let anchor t ~old_size =
  Mutex.protect t.commit_lock (fun () ->
      let digest = L.digest t.ledger in
      if old_size > digest.Journal.size then
        invalid_arg
          (Printf.sprintf "anchor: client ahead of server (%d > %d)" old_size digest.Journal.size);
      (digest, Journal.prove_consistency (L.journal t.ledger) ~old_size))

let verify_read ~digest ~key ~value proof = L.verify_read ~digest ~key ~value proof
let verify_batch_read ~digest ~items proof = L.verify_batch_read ~digest ~items proof
let verify_range ~digest ~lo ~hi ~entries proof = L.verify_range ~digest ~lo ~hi ~entries proof
let verify_write ~digest receipt = L.verify_write ~digest receipt

(* Full audit: every chain link, plus every block's entries re-verified
   against its header through one multiproof per block. *)
let audit t =
  L.audit t.ledger
  &&
  let n = L.height t.ledger in
  let rec go h = h >= n || (L.audit_block t.ledger ~height:h && go (h + 1)) in
  go 0

(* --- retention ---

   Immutability means the store only grows (the paper's first challenge,
   section 3.1). Retention bounds it: every block body (the journal is the
   audit trail), the index instances from some height on, and every value
   blob and chunk a block's put names are live; nothing else is needed to
   read, verify or reopen the database. A durable handle deletes index
   nodes once the retention window passes them, and a checkpoint writes
   only the live set. Verified reads pinned below the retained instances
   become unavailable; the full value history and the chain audit are
   untouched. *)

(* The live set of a pinned state: its block bodies, the index instances at
   [roots], the value of every put the bodies record, and every blob
   descriptor with its chunks. Every put's value is a cell version (the
   catalog's are inline in the index, so their entries name nothing
   stored), and nothing is read but immutable objects by address, so the
   mark needs no lock — only the pin of [bodies] and [roots] does. *)
let live_set t ~bodies ~roots =
  let live = Spitz_crypto.Hash.Table.create (16 * List.length bodies) in
  let visit h = Spitz_crypto.Hash.Table.replace live h () in
  List.iter
    (fun body ->
       visit body;
       List.iter
         (fun (e : Block.entry) ->
            match e.op with Block.Insert | Block.Update -> visit e.value_hash | Block.Delete -> ())
         (Block.decode (Object_store.get_exn t.store body)).Block.entries)
    bodies;
  List.iter (fun root -> L.mark_instance t.ledger root visit) roots;
  Object_store.mark_blobs t.store live;
  live

(* --- persistence: everything lives in the content-addressed store, so a
   snapshot is the object stream plus the journal's block addresses. A
   reopen re-validates the hash chain and walks the journal to rebuild the
   cell store. --- *)

exception Corrupt = Object_store.Corrupt
(* One error surface for every corruption mode of the persisted formats. *)

let magic = "SPITZDB1"

(* [save_with_bodies] snapshots a *pinned* block-address list rather than
   the live one: a checkpoint pins the journal under the commit lock, then
   writes the file outside it while commits proceed. Only the objects of
   [live] (the checkpoint's retention mark of the pinned state) are
   written. *)
let save_with_bodies ~live t bodies path =
  (* write to a temporary sibling and rename over the target: a crash
     mid-save leaves the previous snapshot untouched, and rename is atomic
     on POSIX filesystems *)
  let tmp = path ^ ".tmp" in
  (try
     let oc = open_out_bin tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
          output_string oc magic;
          let buf = Wire.writer () in
          Wire.write_string buf t.column;
          Wire.write_byte buf '\000' (* the retired inverted-index flag *);
          Wire.write_list buf Wire.write_hash bodies;
          let header = Wire.contents buf in
          output_binary_int oc (String.length header);
          output_string oc header;
          Object_store.dump ~live t.store oc;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Fault.hit "save.before_rename";
  Sys.rename tmp path

(* The lowest height from which every block's index instance is stored. A
   retention mark keeps whole instances, so an instance whose root is
   stored is readable in full; a snapshot that kept every instance opens
   with horizon 0. *)
let horizon_of store journal =
  let retained h =
    let root = (Journal.header journal h).Block.index_root in
    Spitz_crypto.Hash.is_null root || Object_store.mem store root
  in
  let rec down h = if h > 0 && retained (h - 1) then down (h - 1) else h in
  let n = Journal.length journal in
  if n > 0 && retained (n - 1) then down (n - 1) else n

(* Rebuild a database around a restored object store in one pass over the
   block bodies: the ledger restore decodes each body once, re-validating
   its chain link, and hands the block to the cell pass, which indexes each
   value where the store already holds it — a reopen puts nothing, so it
   does no second hashing or put work (DESIGN.md, Recovery).

   The cell pass walks a block's entries last to first. The first write of
   a cell it meets is the block's last, so it lands; an earlier write of
   the same cell finds a version at this height already and is skipped —
   [last_write_per_key]'s rule without a per-block table. A value address
   is resolved only for a write that lands: the snapshot keeps only those
   values, so an overwritten one may be missing.

   The store starts its index class from the head instance, found by
   walking it: the older instances a snapshot may hold are not classified
   and never reclaimed. What else the restored store holds under a head
   node's address — a block body, or a value that could be a node's
   encoding — is kept out of the class; the pass notes such values, and
   they leave the class once the head instance joins it.

   Returns the database, the seconds the cell pass took, and the block
   entries it walked. *)
let rebuild ~store ~column bodies =
  let cells = Cell_store.create ~size:(Object_store.object_count store / 2) ~store () in
  (* addresses to keep out of the index class once it is built *)
  let kept = ref [] in
  (* A value [put_blob] stored raw is the object under its content hash.
     Raw [get], not [get_blob]: a small value that looks like a chunk
     descriptor is stored chunked, and the object under its hash is only
     its chunk. A chunked value lives under its descriptor, found by the
     content the descriptor reassembles to — one pass over the store, taken
     only if such a value is met. *)
  let descriptors =
    lazy
      (let by_content = Spitz_crypto.Hash.Table.create 64 in
       List.iter
         (fun addr ->
            if Object_store.blob_parts store addr <> [] then
              Option.iter
                (fun v -> Spitz_crypto.Hash.Table.replace by_content (Spitz_crypto.Hash.of_string v) addr)
                (Object_store.get_blob store addr))
         (Object_store.fold store (fun addr _ acc -> addr :: acc) []);
       by_content)
  in
  let address vhash =
    match Object_store.get store vhash with
    | Some data when Object_store.stores_raw data ->
      if Spitz_adt.Kv_node.may_be_node data then kept := vhash :: !kept;
      Some vhash
    | _ ->
      let addr = Spitz_crypto.Hash.Table.find_opt (Lazy.force descriptors) vhash in
      Option.iter (fun a -> kept := Object_store.blob_parts store a @ !kept) addr;
      addr
  in
  let restore_entry height (e : Block.entry) =
    let column, pk = cell_in ~column e.key in
    if not (String.equal column catalog_column) then
      Cell_store.restore_version cells ~column ~pk ~ts:height (fun () ->
          match e.op with
          | Block.Delete -> None
          | Block.Insert | Block.Update -> (
            match address e.value_hash with
            | Some addr -> Some (e.value_hash, addr)
            | None ->
              (* every value a block leaves is in the live set a snapshot
                 keeps, so a missing one is damage, never retention *)
              raise
                (Corrupt
                   (Printf.sprintf "block %d: the value of %S is not in the store" height e.key))))
  in
  let cells_s = ref 0.0 and entries = ref 0 in
  let on_block height (block : Block.t) =
    let t0 = Unix.gettimeofday () in
    List.iter (restore_entry height) (List.rev block.Block.entries);
    entries := !entries + List.length block.Block.entries;
    cells_s := !cells_s +. (Unix.gettimeofday () -. t0)
  in
  let ledger = L.restore ~on_block store bodies in
  let t = of_ledger ~store ~column ~cells ledger in
  Atomic.set t.horizon (horizon_of store (L.journal ledger));
  Object_store.track_index_nodes store;
  Option.iter
    (fun s -> L.mark_instance ledger (L.snapshot_root s) (Object_store.adopt_node store))
    (L.snapshot ledger);
  List.iter (Object_store.keep store) bodies;
  List.iter (Object_store.keep store) !kept;
  t.retention <-
    Some
      { filed = Queue.create ();
        pinned = Atomic.make max_int;
        reclaimed = 0;
        freed = 0;
        collect_at = collect_threshold () };
  (t, !cells_s, !entries)

(* Restoration paths leak a zoo of exceptions — truncated channels, bad
   shifts, missing objects, broken chain links. Collapse them all into
   [Corrupt]: a reader of a damaged file needs one catchable error, not an
   exhaustive list of internals. *)
let corrupt_guard name f =
  try f () with
  | End_of_file -> raise (Corrupt (name ^ ": truncated file"))
  | Invalid_argument msg -> raise (Corrupt (name ^ ": " ^ msg))
  | Not_found -> raise (Corrupt (name ^ ": referenced object missing"))
  | Wire.Malformed msg -> raise (Corrupt (name ^ ": " ^ msg))
  | Wal.Corrupt msg -> raise (Corrupt (name ^ ": " ^ msg))

(* Snapshot header: magic, column id, flag byte, block addresses. The flag
   byte marked a database that kept an inverted value index; the index was
   derived from the cells, so the byte is written 0 and read past. *)
let read_snapshot_header ic =
  let m = really_input_string ic (String.length magic) in
  if not (String.equal m magic) then raise (Corrupt "not a spitz snapshot");
  let header_len = input_binary_int ic in
  if header_len < 0 || header_len > in_channel_length ic - pos_in ic then
    raise (Corrupt "snapshot header length out of range");
  let header = really_input_string ic header_len in
  let r = Wire.reader header in
  let column = Wire.read_string r in
  ignore (Wire.read_byte r);
  let bodies = Wire.read_list r Wire.read_hash in
  (column, bodies)

(* --- durable database: snapshot + write-ahead log of batches ---

   The snapshot is the last checkpoint; the write-ahead log fills the gap
   since. Every commit appends one logical record: its batch (statements,
   puts and deletes) and the content address of the block body it produced
   ([encode_wal_record]). Recovery is re-execution: restore the snapshot,
   then run each logged batch through [commit] again. Digests do not depend
   on timing, so the re-run rebuilds the same index nodes, block and cell
   versions, and a record whose re-run yields a different body is rejected
   as corrupt; a torn tail (CRC failure mid-record) is truncated and
   forgiven. *)

type checkpoint_policy =
  | Manual
  | Every_n_records of int

type checkpoint_stats = {
  checkpoints : int;
  auto_checkpoints : int;
  failures : int;
  retired_segments : int;
  last_error : string option;
  max_lock_hold_s : float;
}

type open_stats = {
  snapshot_restore_s : float;
  ledger_restore_s : float;
  cell_rebuild_s : float;
  log_rerun_s : float;
  audit_s : float;
  objects : int;
  blocks : int;
  entries : int;
  records : int;
}

(* The directory lock a process holds: one descriptor of [DIR/lock] and the
   number of open handles sharing it. *)
type dir_lock = { file : int * int; (* (st_dev, st_ino) *) fd : Unix.file_descr; mutable handles : int }

type durable = {
  db : t;
  wal : Wal.t;
  dir : string;
  lock : dir_lock; (* one share of the directory's lock, given back on close *)
  opened : open_stats; (* what the open that made this handle took *)
  mutable closed : bool;
  (* checkpointing: [ckpt_lock] serializes checkpoint runs (manual callers
     against the background thread); the counters are atomics so
     [checkpoint_stats] never blocks behind a checkpoint in progress *)
  ckpt_lock : Mutex.t;
  mutable ckpt_policy : checkpoint_policy;
  mutable ckpt_domain : unit Domain.t option;
  ckpt_stop : bool Atomic.t;
  ckpt_n : int Atomic.t;
  ckpt_auto : int Atomic.t;
  ckpt_failures : int Atomic.t;
  ckpt_retired : int Atomic.t;
  ckpt_last_error : string option Atomic.t;
  ckpt_base_records : int Atomic.t; (* WAL record count at the last checkpoint *)
  ckpt_height : int Atomic.t; (* blocks the snapshot on disk holds *)
  ckpt_lock_hold : float Atomic.t; (* longest commit-lock hold of one checkpoint *)
}

let snapshot_file dir = Filename.concat dir "snapshot"
let wal_file dir = Filename.concat dir "wal"
let meta_file dir = Filename.concat dir "meta"
let lock_file dir = Filename.concat dir "lock"

exception Locked of int option

(* One process at a time opens a directory: an exclusive [lockf] on
   [DIR/lock], which records the holder's pid for the refusal. The kernel
   drops the lock when the holder exits, however it ends, so a crash leaves
   nothing to clean up.

   A [lockf] lock belongs to the process, and closing any descriptor of the
   file drops it. So the process opens each lock file once: [dir_locks],
   keyed by the file's (device, inode), holds its descriptor, and a second
   open of the directory in the same process — a crash test's
   abandon-and-reopen — takes one more share of it without opening the
   file again. Only the last share given back closes the descriptor. *)
let dir_locks : (int * int, dir_lock) Hashtbl.t = Hashtbl.create 4
let dir_locks_mutex = Mutex.create ()

let file_id (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino)

let lock_dir dir =
  let path = lock_file dir in
  Mutex.protect dir_locks_mutex (fun () ->
      let held =
        match Unix.stat path with
        | st -> Hashtbl.find_opt dir_locks (file_id st)
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
      in
      match held with
      | Some l ->
        l.handles <- l.handles + 1;
        l
      | None -> (
        let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644 in
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
          let pid = string_of_int (Unix.getpid ()) in
          Unix.ftruncate fd 0;
          ignore (Unix.write_substring fd pid 0 (String.length pid));
          let l = { file = file_id (Unix.fstat fd); fd; handles = 1 } in
          Hashtbl.replace dir_locks l.file l;
          l
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
          let pid = In_channel.with_open_bin path In_channel.input_all in
          Unix.close fd;
          raise (Locked (int_of_string_opt pid))))

let unlock_dir l =
  Mutex.protect dir_locks_mutex (fun () ->
      l.handles <- l.handles - 1;
      if l.handles = 0 then begin
        Hashtbl.remove dir_locks l.file;
        Unix.close l.fd
      end)

(* The database identity (its column id) is written once at creation, so a
   reopen before the first checkpoint — when no snapshot exists yet — still
   knows what it is reopening. The flag byte after it is the snapshot
   header's: written 0, read past. *)
let write_meta dir ~column =
  let tmp = meta_file dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
       output_string oc magic;
       let buf = Wire.writer () in
       Wire.write_string buf column;
       Wire.write_byte buf '\000';
       output_string oc (Wire.contents buf);
       flush oc;
       Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp (meta_file dir);
  (* the rename is durable only once the directory is *)
  Wal.fsync_dir dir

let read_meta dir =
  let ic = open_in_bin (meta_file dir) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
       corrupt_guard "Db.open_durable(meta)" (fun () ->
           let m = really_input_string ic (String.length magic) in
           if not (String.equal m magic) then
             raise (Corrupt "Db.open_durable: meta file is not a spitz meta file");
           let rest = really_input_string ic (in_channel_length ic - pos_in ic) in
           let r = Wire.reader rest in
           let column = Wire.read_string r in
           ignore (Wire.read_byte r);
           column))

let durable_db d = d.db
let wal_size d = Wal.size d.wal
let wal_stats d = Wal.stats d.wal
let uncheckpointed_blocks d = L.height d.db.ledger - Atomic.get d.ckpt_height

let check_open d op = if d.closed then invalid_arg ("Db." ^ op ^ ": durable handle is closed")

(* Re-run the logged batches on top of the database the snapshot rebuilt.
   A record below the snapshot's height was made redundant by a checkpoint
   before the log was retired (the crash window between rename and
   retirement). Every other record must extend the chain by exactly one
   block, and its re-run must produce the body the live commit logged. *)
let replay_records db records =
  let base = L.height db.ledger in
  List.iter
    (fun data ->
       let height, statements, writes, body = decode_wal_record data in
       if height >= base then begin
         let expected = L.height db.ledger in
         if height <> expected then
           raise (Corrupt (Printf.sprintf "wal: block height %d where %d expected" height expected));
         ignore (commit db ~statements writes);
         if not (Spitz_crypto.Hash.equal body (Journal.body_hash (L.journal db.ledger) height))
         then
           raise
             (Corrupt
                (Printf.sprintf "wal: re-running block %d does not reproduce its logged body" height))
       end)
    records

(* [open_durable] once it holds the directory's lock. *)
let open_locked ~sync ~repair ~lock dir =
  let snap = snapshot_file dir in
  (* a checkpoint that died before its rename leaves a stray temp file;
     removed in *both* repair modes — the temps are checkpoint debris, not
     part of the log, so even a strict (repair:false) open must not leave
     them to shadow a later checkpoint's temp or leak per crash *)
  (try Sys.remove (snap ^ ".tmp") with Sys_error _ -> ());
  (try Sys.remove (meta_file dir ^ ".tmp") with Sys_error _ -> ());
  (* the identity recorded at creation wins over the caller's defaults *)
  let column = if Sys.file_exists (meta_file dir) then read_meta dir else kv_column in
  if not (Sys.file_exists (meta_file dir)) then write_meta dir ~column;
  let clock = ref (Unix.gettimeofday ()) in
  let lap () =
    let now = Unix.gettimeofday () in
    let s = now -. !clock in
    clock := now;
    s
  in
  (* 1. the last checkpoint, if any *)
  let store, column, bodies =
    if Sys.file_exists snap then begin
      let ic = open_in_bin snap in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
           corrupt_guard "Db.open_durable(snapshot)" (fun () ->
               let column, bodies = read_snapshot_header ic in
               let store = Object_store.create () in
               Object_store.restore store ic;
               (store, column, bodies)))
    end
    else (Object_store.create (), column, [])
  in
  let objects = Object_store.object_count store in
  let snapshot_restore_s = lap () in
  (* 2. read the log. With [repair] (the default) a torn tail of the final
     segment is truncated in place by [Wal.replay]; without it the log is
     left untouched and a tear is an error — strict mode surfaces damage
     instead of silently fixing it (and the handle must not append after a
     tear it did not repair). Damage in a sealed (non-final) segment, and a
     segment without the version header, raise [Wal.Corrupt] in either
     mode. *)
  let replayed = corrupt_guard "Db.open_durable(wal)" (fun () -> Wal.replay ~repair (wal_file dir)) in
  if (not repair) && replayed.Wal.torn_bytes > 0 then
    raise
      (Corrupt
         (Printf.sprintf "Db.open_durable: wal tail is torn (%d bytes) and repair is off"
            replayed.Wal.torn_bytes));
  let log_read_s = lap () in
  (* 3. rebuild the snapshot's state in one pass over its block bodies;
     [Journal.append] inside re-validates every chain link *)
  let db, cell_rebuild_s, entries =
    corrupt_guard "Db.open_durable" (fun () ->
        rebuild ~store ~column bodies)
  in
  let ledger_restore_s = lap () -. cell_rebuild_s in
  (* 4. re-run the log's batches past the snapshot, reclaiming as a live
     run does *)
  corrupt_guard "Db.open_durable(wal)" (fun () -> replay_records db replayed.Wal.records);
  let log_rerun_s = log_read_s +. lap () in
  (* 5. belt and braces: re-walk the whole journal hash chain before serving *)
  if not (L.audit db.ledger) then
    raise (Corrupt "Db.open_durable: journal hash chain does not verify");
  let audit_s = lap () in
  let wal = corrupt_guard "Db.open_durable(wal)" (fun () -> Wal.open_log ~sync (wal_file dir)) in
  db.log <- Some { wal; record = Wire.writer ~size:4096 () };
  {
    db;
    wal;
    dir;
    lock;
    opened =
      { snapshot_restore_s; ledger_restore_s; cell_rebuild_s; log_rerun_s; audit_s; objects;
        blocks = List.length bodies; entries; records = List.length replayed.Wal.records };
    closed = false;
    ckpt_lock = Mutex.create ();
    ckpt_policy = Manual;
    ckpt_domain = None;
    ckpt_stop = Atomic.make false;
    ckpt_n = Atomic.make 0;
    ckpt_auto = Atomic.make 0;
    ckpt_failures = Atomic.make 0;
    ckpt_retired = Atomic.make 0;
    ckpt_last_error = Atomic.make None;
    ckpt_base_records = Atomic.make (Wal.stats wal).Wal.records;
    ckpt_height = Atomic.make (List.length bodies);
    ckpt_lock_hold = Atomic.make 0.0;
  }

let open_durable ?(sync = Wal.Always) ?(repair = true) dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  if not (Sys.is_directory dir) then
    invalid_arg ("Db.open_durable: not a directory: " ^ dir);
  let lock = lock_dir dir in
  try open_locked ~sync ~repair ~lock dir with e -> unlock_dir lock; raise e

(* Checkpoint = claim, mark, then persist.

   Under the commit lock (about 1.2 ms on a 2-vCPU Xeon, independent of
   history; DESIGN.md, Durability): pin the journal's block-address list
   and the head index root, and rotate the WAL. That pairs the pinned
   state with the sealed segments exactly — every record in them has
   height below the pin, every commit after the lock releases lands in the
   fresh segment at or above it.

   Outside the lock (the long part): mark the live set of the pinned state
   — every body, the head instance's nodes, the value of every put the
   bodies record, every blob descriptor and its chunks — then write the
   snapshot of just those objects (atomic temp+rename
   inside [save_with_bodies]), fsync the directory so the rename survives
   power loss, then retire the sealed segments their records now being
   snapshot-covered. Older index instances are not written: a reopen needs
   only the head instance to re-run the log on, and opens with its horizon
   there. Committers run concurrently with all of it. Crash anywhere and
   recovery still works: the snapshot rename is atomic, replay skips
   records below the snapshot's base height, and retirement deletes
   oldest-first so a half-retired tail is a plain suffix of
   snapshot-covered segments. *)
let checkpoint_locked ?(auto = false) d =
  let db = d.db in
  let unpin () = Option.iter (fun r -> Atomic.set r.pinned max_int) db.retention in
  match
    Fun.protect ~finally:unpin @@ fun () ->
    let bodies, roots =
      Mutex.lock db.commit_lock;
      let locked_at = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
            let held = Unix.gettimeofday () -. locked_at in
            Mutex.unlock db.commit_lock;
            (* checkpoints are serialized by [ckpt_lock]: no racing update *)
            if held > Atomic.get d.ckpt_lock_hold then Atomic.set d.ckpt_lock_hold held)
        (fun () ->
           Fault.hit "checkpoint.begin";
           let bodies = L.body_hashes db.ledger in
           let head = L.snapshot db.ledger in
           let roots = Option.to_list (Option.map L.snapshot_root head) in
           (* the head instance is marked and written outside the lock:
              no commit may reclaim its nodes until then *)
           Option.iter
             (fun r ->
                Option.iter (fun s -> Atomic.set r.pinned (L.snapshot_height s)) head)
             db.retention;
           ignore (Wal.rotate d.wal);
           Atomic.set d.ckpt_base_records (Wal.stats d.wal).Wal.records;
           (bodies, roots))
    in
    let live = live_set db ~bodies ~roots in
    Fault.hit "checkpoint.after_mark";
    save_with_bodies ~live db bodies (snapshot_file d.dir);
    unpin ();
    Atomic.set d.ckpt_height (List.length bodies);
    Fault.hit "checkpoint.save_done";
    Wal.fsync_dir d.dir;
    Fault.hit "checkpoint.after_rename";
    Wal.retire d.wal
  with
  | retired ->
    Atomic.incr d.ckpt_n;
    if auto then Atomic.incr d.ckpt_auto;
    ignore (Atomic.fetch_and_add d.ckpt_retired retired)
  | exception e ->
    Atomic.incr d.ckpt_failures;
    Atomic.set d.ckpt_last_error (Some (Printexc.to_string e));
    raise e

let checkpoint d =
  check_open d "checkpoint";
  (* serialize whole checkpoint runs — a manual caller against the
     background thread — without touching the commit lock *)
  Mutex.lock d.ckpt_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock d.ckpt_lock)
    (fun () -> checkpoint_locked d)

let checkpoint_stats d =
  {
    checkpoints = Atomic.get d.ckpt_n;
    auto_checkpoints = Atomic.get d.ckpt_auto;
    failures = Atomic.get d.ckpt_failures;
    retired_segments = Atomic.get d.ckpt_retired;
    last_error = Atomic.get d.ckpt_last_error;
    max_lock_hold_s = Atomic.get d.ckpt_lock_hold;
  }

let open_stats d = d.opened

let checkpoint_due d =
  match d.ckpt_policy with
  | Manual -> false
  | Every_n_records n ->
    (Wal.stats d.wal).Wal.records - Atomic.get d.ckpt_base_records >= max 1 n

(* The background checkpointer is a domain, not a systhread: a systhread
   would contend for the runtime lock with committer threads for the whole
   CPU-bound snapshot serialization, inflating commit tail latency — the
   very thing background checkpoints exist to avoid. A failed attempt
   backs off exponentially (capped) so a persistent error — disk full,
   injected crash — cannot spin the loop. *)
let ckpt_loop d =
  let min_backoff = 0.002 in
  let backoff = ref min_backoff in
  let retry = ref false in
  while not (Atomic.get d.ckpt_stop) do
    if !retry || checkpoint_due d then begin
      Mutex.lock d.ckpt_lock;
      match
        Fun.protect
          ~finally:(fun () -> Mutex.unlock d.ckpt_lock)
          (fun () -> if not (Atomic.get d.ckpt_stop) then checkpoint_locked ~auto:true d)
      with
      | () ->
        backoff := min_backoff;
        retry := false
      | exception _ ->
        (* counted in [ckpt_failures]/[last_error] by [checkpoint_locked].
           A failed attempt may already have rotated the log and reset the
           policy counters in phase 1, so [checkpoint_due] alone would never
           re-fire on a quiet database: always retry after the backoff *)
        retry := true;
        Unix.sleepf !backoff;
        backoff := Float.min (!backoff *. 2.) 0.2
    end
    else Unix.sleepf 0.001
  done

let stop_checkpointer d =
  match d.ckpt_domain with
  | None -> ()
  | Some dom ->
    Atomic.set d.ckpt_stop true;
    Domain.join dom;
    d.ckpt_domain <- None;
    Atomic.set d.ckpt_stop false

let set_checkpoint_policy d policy =
  check_open d "set_checkpoint_policy";
  d.ckpt_policy <- policy;
  match policy with
  | Manual -> stop_checkpointer d
  | Every_n_records _ ->
    if d.ckpt_domain = None then d.ckpt_domain <- Some (Domain.spawn (fun () -> ckpt_loop d))

let sync_durable d =
  check_open d "sync_durable";
  Wal.sync d.wal

let close_durable d =
  if not d.closed then begin
    (* stop the background checkpointer before tearing anything down: it
       may be mid-checkpoint, and joining it is the only safe ordering *)
    stop_checkpointer d;
    d.db.log <- None;
    d.closed <- true;
    (* last: drain + fsync + close the log, *surfacing* failures — a close
       that could not flush the pending group-commit batch must not look
       clean, or acknowledged records silently evaporate. [Wal.close]
       closes the descriptor even when the drain raises, and the log is
       already detached, so the handle is fully shut either way. Giving
       back the last share of the lock releases the directory. *)
    Fun.protect ~finally:(fun () -> unlock_dir d.lock) (fun () -> Wal.close d.wal)
  end
