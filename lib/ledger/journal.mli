(** Hash-chained, append-only journal of blocks with a Merkle commitment over
    the block headers.

    The digest (Merkle root + size) is what a verifying client pins locally:
    inclusion proofs place any block under it, and consistency proofs show a
    newer digest is an append-only extension of an older one. *)

open Spitz_crypto

type t

type digest = { root : Hash.t; size : int }

val write_digest : Spitz_storage.Wire.writer -> digest -> unit
val read_digest : Spitz_storage.Wire.reader -> digest
(** Writer/reader-level digest codec for embedding in proof envelopes. *)

val create : Spitz_storage.Object_store.t -> t

val length : t -> int

val head : t -> Block.header option
val head_hash : t -> Hash.t
(** Hash of the latest block header; {!Hash.null} when empty. *)

val digest : t -> digest

val digest_at : t -> size:int -> digest
(** The digest as of the first [size] blocks — the journal is append-only,
    so this is exactly what {!digest} returned when the chain was that
    long. Raises [Invalid_argument] when [size] is out of range. *)

val append : ?body:Hash.t -> t -> Block.t -> unit
(** Persist the block and extend the chain. Raises [Invalid_argument] if the
    block does not link to the current head or has the wrong height. With
    [body], the block's encoding is already stored under that address and
    nothing is put, so a reopen does no second hashing or put work. *)

val header : t -> int -> Block.header
val block : t -> int -> Block.t
(** Fetch by height. Raise [Invalid_argument] when out of range. *)

val statements : t -> int -> string list
(** The statements of the block at a height, read without decoding its
    entries. Raise [Invalid_argument] when out of range. *)

val body_hash : t -> int -> Spitz_crypto.Hash.t
(** Content address of the encoded block at a height (persistence). *)

val prove_inclusion : t -> int -> Spitz_adt.Merkle.inclusion_proof

val prove_inclusion_at : t -> int -> size:int -> Spitz_adt.Merkle.inclusion_proof
(** Inclusion proof for a block within the chain prefix of [size] blocks —
    verifies against [digest_at t ~size]. Anchors a historical snapshot's
    proofs at the digest of its own height, not the pin-time head. *)

val verify_inclusion :
  digest:digest -> height:int -> header:Block.header ->
  Spitz_adt.Merkle.inclusion_proof -> bool

val prove_consistency : t -> old_size:int -> Spitz_adt.Merkle.consistency_proof

val verify_consistency :
  old_digest:digest -> new_digest:digest -> Spitz_adt.Merkle.consistency_proof -> bool

val audit_chain : t -> bool
(** Re-walk every hash link in the chain; [true] iff intact. *)
