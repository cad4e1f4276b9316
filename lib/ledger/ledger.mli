(** The Spitz ledger: a journal of blocks where each block stores a
    historical instance of a SIRI index over the entire dataset. Instances
    share all untouched nodes, and because the index holds the values
    themselves, a read's proof is exactly the node path the read already
    traversed — the paper's "unified index".

    Functorized over the SIRI implementation so the same ledger runs over
    POS-tree, MPT, MBT, or the Merkle B+-tree. *)

open Spitz_crypto
open Spitz_storage
open Spitz_adt

type write = Put of string * string | Delete of string

module Make (Index : Siri.S) : sig
  type t

  val create : Object_store.t -> t

  val store : t -> Object_store.t
  val journal : t -> Journal.t
  val height : t -> int
  (** Number of committed blocks. *)

  val digest : t -> Journal.digest

  val commit : t -> ?statements:string list -> write list -> int
  (** Commit one batch as a new block holding a fresh index instance;
      returns the block height. Equivalent to {!prepare} followed by
      {!commit_prepared}. *)

  type prepared
  (** A batch whose value hashes have been computed but which has not yet
      been given a place in the ledger. *)

  val prepare : ?statements:string list -> write list -> prepared
  (** The lock-free front half of {!commit}: hash every written value.
      Touches no ledger — any number of committers may [prepare]
      concurrently, overlapping the hashing of one commit with the serial
      section or WAL write of another. *)

  val value_hashes : prepared -> Hash.t list
  (** The prepared writes' value hashes, in write order ([Hash.null] for a
      delete) — the block entries' [value_hash]es. *)

  val commit_prepared : t -> prepared -> int * Hash.t list
  (** The serial back half of {!commit}: assign the transaction id, apply
      the writes to the SIRI index in batch order, assemble and append the
      block; returns its height. Calls must be externally serialized; the
      resulting chain is bit-identical to committing the same batches
      serially in the same order. The block's index nodes are put as
      created by it ({!Siri.S.insert_batch_at}), and the stored nodes of
      the previous instance its batch rewrote are returned with the height:
      what a store that reclaims superseded versions may delete once no
      retained instance below this block needs them. *)

  type read_proof = {
    rp_height : int;            (** block whose index instance served the read *)
    rp_header : Block.header;
    rp_journal : Merkle.inclusion_proof;
    rp_digest : Journal.digest; (** digest the proof is rooted in *)
    rp_index : Siri.proof;
  }

  val verify_read :
    digest:Journal.digest -> key:string -> value:string option -> read_proof -> bool
  (** Client side: block under the digest, then value (or proven absence /
      tombstone) under the block's index root. *)

  val verify_read_anchor : digest:Journal.digest -> read_proof -> bool
  val verify_read_at_root : key:string -> value:string option -> read_proof -> bool
  (** The two halves of {!verify_read} — journal inclusion, index lookup — so
      a batching verifier can pay the anchor check once per block instead of
      once per key. [verify_read = anchor && at_root]. *)

  type batch_read_proof = {
    brp_height : int;            (** block whose index instance served the reads *)
    brp_header : Block.header;
    brp_journal : Merkle.inclusion_proof;
    brp_digest : Journal.digest; (** digest the proof is rooted in *)
    brp_index : Siri.proof;      (** one deduplicated proof covering every key *)
  }
  (** Proof for a whole key set, anchored at a single journal digest: one
      journal inclusion proof per block instead of one per key, and the index
      part is the deduplicated union of the keys' path nodes. *)

  val verify_batch_read :
    digest:Journal.digest -> items:(string * string option) list -> batch_read_proof -> bool
  (** Check every (key, claimed value) pair against the one batched proof.
      True iff the anchor holds and {e every} claim checks out. *)

  val verify_batch_anchor : digest:Journal.digest -> batch_read_proof -> bool
  val verify_batch_at_root : items:(string * string option) list -> batch_read_proof -> bool
  (** The two halves of {!verify_batch_read}, mirroring
      {!verify_read_anchor} / {!verify_read_at_root}. *)

  (** {1 Snapshot reads}

      A {!snapshot} is an immutable view of the ledger as of one committed
      block: the block header, the journal digest and a precomputed
      inclusion proof, and the block's index instance. {!snapshot} is one
      atomic load of the view the serial commit section published last — so
      a reader holding it observes exactly one committed block state, and
      every read below runs without any lock, concurrently with committers.
      Proofs obtained from a snapshot verify against {!snapshot_digest} (the
      digest as of the pinned block, not whatever the ledger head moved on
      to). *)

  type snapshot

  val snapshot : t -> snapshot option
  (** The latest committed view ([None] before the first commit). Lock-free;
      safe from any domain. *)

  val snapshot_at : ?lock:Mutex.t -> t -> height:int -> snapshot
  (** Pin the view of block [height] — the one rule every pinned read goes
      through. At the published head's height this is {!snapshot}'s head:
      lock-free, nothing rebuilt. An older block walks the journal's
      mutable Merkle tree, so that walk must be serialized against commits:
      it runs under [lock] when one is given (the Db layer passes its
      commit lock). The returned snapshot is safe to read from any domain.
      Raises [Invalid_argument] when out of range. *)

  val snapshot_height : snapshot -> int
  val snapshot_digest : snapshot -> Journal.digest
  val snapshot_root : snapshot -> Hash.t
  (** The pinned block's index root — what the snapshot's SIRI proofs hang
      from. *)

  val snap_get : snapshot -> string -> string option
  val snap_range : snapshot -> lo:string -> hi:string -> (string * string) list

  val snap_get_with_proof : snapshot -> string -> string option * read_proof
  val snap_get_batch_with_proof :
    snapshot -> string list -> string option list * batch_read_proof
  val snap_range_with_proof :
    snapshot -> lo:string -> hi:string -> (string * string) list * read_proof
  (** Reads against the pinned instance; the [_with_proof] forms consult the
      proof cache. These are the ledger's only verified reads: a read at
      the head is {!snapshot} followed by one of them. *)

  (** {2 Server-side proof cache}

      Index-path proof construction is memoized keyed by (index root, key
      set). Roots are content addresses, so a new commit's new root is a new
      cache key — that is the whole invalidation protocol; entries under
      superseded roots serve snapshot readers still pinned there until LRU
      pressure evicts them. The cache is per index family (shared by every
      ledger instance of this functor instantiation). *)

  val proof_cache_stats : unit -> Spitz_storage.Node_cache.stats
  (** Merged hit/miss/eviction counters over the get/batch/range proof
      caches. *)

  val reset_proof_cache_stats : unit -> unit

  val clear_proof_cache : unit -> unit
  (** Drop every memoized proof (counters kept). Only useful to bound memory
      or in benchmarks — staleness is impossible by construction. *)

  val verify_range :
    digest:Journal.digest -> lo:string -> hi:string ->
    entries:(string * string) list -> read_proof -> bool
  (** Recomputes the committed range from the proof and requires exact
      equality — sound against omissions, fabrications, substitutions. *)

  val verify_range_at_root :
    lo:string -> hi:string -> entries:(string * string) list -> read_proof -> bool
  (** Index half of {!verify_range} ([verify_range = verify_read_anchor &&
      verify_range_at_root]). *)

  type write_receipt = {
    wr_height : int;
    wr_header : Block.header;
    wr_entry : Block.entry;
    wr_entry_index : int;
    wr_entry_proof : Merkle.inclusion_proof;
    wr_journal : Merkle.inclusion_proof;
    wr_digest : Journal.digest;
  }

  val write_receipts : t -> height:int -> write_receipt list
  val verify_write : digest:Journal.digest -> write_receipt -> bool

  val verify_write_anchor : digest:Journal.digest -> write_receipt -> bool
  val verify_write_entry : write_receipt -> bool
  (** The two halves of {!verify_write}: journal inclusion of the header, and
      entry inclusion under the header's entries root. *)

  val audit : t -> bool

  val audit_block : t -> height:int -> bool
  (** Per-block audit: one multiproof checks every entry of the block against
      the header's entries root at once, and one journal inclusion proof
      anchors the header — replacing [entry_count] separate receipt
      verifications. *)

  (** {1 Wire codecs}

      Deterministic binary serialization of the proof envelopes, so proofs
      can cross a network boundary to an out-of-process verifier. The
      [decode_*] functions raise {!Spitz_storage.Wire.Malformed} on truncated
      or trailing bytes. *)

  val write_read_proof : Spitz_storage.Wire.writer -> read_proof -> unit
  val read_read_proof : Spitz_storage.Wire.reader -> read_proof
  val encode_read_proof : read_proof -> string
  val decode_read_proof : string -> read_proof

  val write_batch_proof : Spitz_storage.Wire.writer -> batch_read_proof -> unit
  val read_batch_proof : Spitz_storage.Wire.reader -> batch_read_proof
  val encode_batch_proof : batch_read_proof -> string
  val decode_batch_proof : string -> batch_read_proof

  val write_receipt_wire : Spitz_storage.Wire.writer -> write_receipt -> unit
  val read_receipt_wire : Spitz_storage.Wire.reader -> write_receipt
  val encode_receipt : write_receipt -> string
  val decode_receipt : string -> write_receipt

  val mark_instance : t -> Hash.t -> (Hash.t -> unit) -> unit
  (** Retention mark: visit the content address of every node of the index
      instance committed to by a root ([Hash.null] visits nothing). Reads
      the store only, so it may run outside any commit serialization. *)

  val body_hashes : t -> Hash.t list
  (** Content addresses of all encoded blocks, in height order
      (persistence). *)

  val restore : on_block:(int -> Block.t -> unit) -> Object_store.t -> Hash.t list -> t
  (** Reopen a ledger from its block addresses; re-validates the chain and
      reopens index instances at the roots the headers commit to. The next
      commit gets the block time and transaction id it would have got in the
      ledger that wrote the blocks, so re-running later batches reproduces
      their blocks byte for byte. [on_block height block] sees each block
      once it is appended, in height order: a caller that derives state from
      the bodies reads the one decode the restore makes. *)
end

module Default : module type of Make (Merkle_bptree)
(** The ledger over the Merkle B+-tree — what {!Spitz.Db} uses. *)
