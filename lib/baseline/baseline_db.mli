(** The baseline system of the paper's evaluation (section 6.1), emulating a
    commercial ledger database: records are collected into blocks appended to
    a hash-chained journal; a Merkle tree shadows a B+-tree as the ledger;
    and blocks are materialized into indexed views for query processing.

    The structural property the evaluation isolates: the ledger is *separate*
    from the query views, so every verified record costs an independent
    per-record ledger search. *)

open Spitz_crypto
open Spitz_ledger

type t

val create : ?store:Spitz_storage.Object_store.t -> unit -> t

val store : t -> Spitz_storage.Object_store.t
val cardinal : t -> int

type digest = { shadow_root : Hash.t; journal_digest : Journal.digest }

val digest : t -> digest

val put : t -> string -> string -> int
(** One record, one journal block (one transaction); returns the txn id. *)

val put_batch : t -> (string * string) list -> int

val get : t -> string -> string option
(** From the current-state view. *)

val get_version : t -> string -> version:int -> string option
(** From the history view: the value as of a commit version. *)

val range : t -> lo:string -> hi:string -> (string * string) list

type proof = {
  p_shadow : Spitz_adt.Siri.proof;
  p_header : Block.header;
  p_height : int;
  p_journal : Spitz_adt.Merkle.inclusion_proof;
}

val prove : t -> string -> proof option
(** The separate-ledger search: shadow-tree path + journal anchoring for one
    record. *)

val get_verified : t -> string -> string option * proof option

val range_verified : t -> lo:string -> hi:string -> (string * string) list * proof list
(** One proof per resulting record — the cost Figure 7 measures. *)

val encode_proof : proof -> string

val decode_proof : string -> proof
(** Raises {!Spitz_storage.Wire.Malformed} on anything but a canonical
    encoding — truncation, trailing bytes, or corrupted fields. *)

val verify : digest:digest -> key:string -> value:string -> proof -> bool
val verify_range : digest:digest -> (string * string) list -> proof list -> bool

val audit : t -> bool
