(** Append-only binary Merkle tree in the RFC 6962 shape, with inclusion and
    consistency (append-only) proofs.

    This is the commitment structure of the ledger journal and of the
    baseline system's proof path. Verification functions recompute roots from
    the proof alone — a client needs no access to the tree. *)

open Spitz_crypto

type t

val create : unit -> t

val of_leaves : string list -> t
(** Tree over the given leaf data, in order. *)

val size : t -> int

val add_leaf : t -> string -> int
(** Append leaf data; returns its index. *)

val add_leaf_hash : t -> Hash.t -> int
(** Append an already-computed leaf hash (must be domain-separated, i.e.
    produced by {!Hash.leaf}). *)

val of_leaf_hashes : Hash.t list -> t
(** The tree {!add_leaf_hash} builds from these leaf hashes, in order — the
    same levels, root and proofs — built level by level, so each of the
    [n - 1] internal nodes is hashed once. *)

val root : t -> Hash.t
(** Current root digest. The empty tree hashes to {!empty_root}. *)

val empty_root : Hash.t
(** [SHA-256("")], the RFC 6962 hash of an empty tree. *)

val leaf_hash : t -> int -> Hash.t

val range_hash : t -> int -> int -> Hash.t
(** [range_hash t lo hi] is the Merkle hash of the subtree covering leaves
    [lo..hi-1]. [range_hash t 0 (size t) = root t]. *)

val root_at : t -> size:int -> Hash.t
(** The root the tree had when it held its first [size] leaves — the tree is
    append-only, so the prefix {e is} that historical tree. [root_at t
    ~size:(size t) = root t]; [root_at t ~size:0 = empty_root]. Raises
    [Invalid_argument] when [size] is out of range. *)

type inclusion_proof = Hash.t list
(** Sibling hashes along the audit path, leaf level first. *)

val prove_inclusion : t -> int -> inclusion_proof

val prove_inclusion_at : t -> int -> size:int -> inclusion_proof
(** Inclusion proof for a leaf {e within the prefix tree} of the first
    [size] leaves — verifies against [root_at t ~size]. Used to anchor a
    historical snapshot's proofs at the digest of its own height. *)

val verify_inclusion :
  root:Hash.t -> size:int -> index:int -> leaf:Hash.t -> inclusion_proof -> bool
(** [leaf] is the domain-separated leaf hash being proven present. *)

type multiproof = Hash.t list
(** One compact proof for a {e set} of leaves: shared internal nodes of
    co-anchored audit paths are encoded exactly once (sorted-index frontier
    merge), so a multiproof for [k] nearby leaves is strictly smaller than
    [k] independent inclusion proofs. *)

val prove_multi : t -> int list -> multiproof
(** Multiproof for the given leaf indices (duplicates are collapsed; order is
    irrelevant). Raises [Invalid_argument] on an out-of-bounds index. The
    proof for every leaf of the tree is empty — the verifier recomputes the
    root from the leaves alone. *)

val verify_multi :
  root:Hash.t -> size:int -> leaves:(int * Hash.t) list -> multiproof -> bool
(** [leaves] are (index, domain-separated leaf hash) claims, any order;
    verification recomputes the root from the claimed leaves plus the proof
    hashes, consumed in the deterministic prover order. An empty claim set
    verifies only the trivial proof ([root] itself, or [[]] on an empty
    tree). *)

type consistency_proof = Hash.t list

val prove_consistency : t -> old_size:int -> consistency_proof
(** Proof that the current tree extends the tree that had [old_size] leaves. *)

val verify_consistency :
  old_root:Hash.t -> old_size:int -> new_root:Hash.t -> new_size:int ->
  consistency_proof -> bool

(** {1 Wire serialization}

    Inclusion, consistency, and multiproofs share the hash-list wire shape;
    one codec covers all three. *)

val write_proof : Spitz_storage.Wire.writer -> Hash.t list -> unit
val read_proof : Spitz_storage.Wire.reader -> Hash.t list

val encode_proof : Hash.t list -> string
val decode_proof : string -> Hash.t list
(** Raises {!Spitz_storage.Wire.Malformed} on truncated or trailing bytes. *)

val proof_bytes : Hash.t list -> int
(** Serialized size of a proof in bytes. *)
