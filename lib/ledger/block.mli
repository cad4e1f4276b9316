(** Ledger blocks: one per committed batch, tracking record modifications,
    the statements that caused them, and the root of the index instance over
    the entire dataset as of the block. *)

open Spitz_crypto

type op = Insert | Update | Delete

type entry = {
  op : op;
  key : string;
  value_hash : Hash.t;  (** hash of the written value; {!Hash.null} for deletes *)
  txn_id : int;
}

type header = {
  height : int;
  prev_hash : Hash.t;    (** hash of the previous block header; null for genesis *)
  entries_root : Hash.t; (** Merkle root over the block's entries *)
  index_root : Hash.t;   (** root of the SIRI index instance as of this block *)
  entry_count : int;
  time : int;            (** logical commit timestamp *)
}

type t = {
  header : header;
  entries : entry list;
  statements : string list;
}

val create :
  height:int -> prev_hash:Hash.t -> index_root:Hash.t -> time:int ->
  entries:entry list -> statements:string list -> t
(** Builds the block, computing [entries_root]. *)

val create_rooted :
  entries_root:Hash.t ->
  height:int -> prev_hash:Hash.t -> index_root:Hash.t -> time:int ->
  entries:entry list -> statements:string list -> t
(** Like {!create} with a precomputed entries root — the commit pipeline
    computes it via {!entries_merkle}, hashing entry leaves through one
    scratch writer. *)

val entry_leaf_into : Spitz_storage.Wire.writer -> entry -> Hash.t
(** The entry's Merkle leaf hash, streamed through [buf] (cleared first) with
    no intermediate string — the [Hash.leaf] of its {!encode_entry} bytes. Serial
    paths reuse one scratch writer across a whole batch. *)

val encode_entry : Spitz_storage.Wire.writer -> entry -> unit
val decode_entry : Spitz_storage.Wire.reader -> entry
val encode_header : Spitz_storage.Wire.writer -> header -> unit
val decode_header : Spitz_storage.Wire.reader -> header
(** Writer/reader-level codecs for embedding entries and headers in larger
    wire structures (read proofs, write receipts). *)

val entries_merkle : entry list -> Spitz_adt.Merkle.t
(** The Merkle tree committing to the block's entries. *)

val hash_header : header -> Hash.t
(** The block id: hash of the canonical header bytes. *)

val encode_into : Spitz_storage.Wire.writer -> t -> unit
(** Append the canonical block bytes to a writer — the zero-copy spine for
    storing blocks ({!Spitz_storage.Object_store.put_writer}) and framing
    them into the WAL without a [contents] string in between. *)

val encode : t -> string
val decode : string -> t
(** Raises {!Spitz_storage.Wire.Malformed} on bad input. *)

val decode_statements : string -> string list
(** [(decode data).statements], read past the header and entries without
    building them. Raises {!Spitz_storage.Wire.Malformed} on bad input. *)
