(** The virtual cell store (paper section 5): immutable, content-addressed
    cells keyed by universal key, indexed by one B+-tree over the encoded
    keys. *)

open Spitz_storage

type t

val create : ?store:Object_store.t -> unit -> t

val store : t -> Object_store.t

val write_cell :
  t -> column:string -> pk:string -> ts:int -> ?vhash:Spitz_crypto.Hash.t -> string ->
  Universal_key.t
(** Append one immutable cell version; the value is content-addressed into
    the object store. [vhash], when the caller already has it, must be the
    value's [Hash.of_string]; the value is then not hashed again. *)

val add_cell :
  t -> column:string -> pk:string -> ts:int -> vhash:Spitz_crypto.Hash.t ->
  Spitz_crypto.Hash.t -> Universal_key.t
(** Index one cell version whose value {!write_cell} already stored at the
    given address (its [put_blob] address). Nothing is put, so restoring
    cells from a saved store does no second hashing or put work. *)

val delete_cell : t -> column:string -> pk:string -> ts:int -> Universal_key.t
(** Append a tombstone version: the cell reads as absent from this timestamp
    on, while older versions stay reachable by [ts]. *)

val read_cell : ?ts:int -> t -> column:string -> pk:string -> (Universal_key.t * string) option
(** Newest version at or below [ts] (default: latest), with its key. Absent
    includes "newest version is a tombstone". *)

val read_value : ?ts:int -> t -> column:string -> pk:string -> string option
(** Hot path: like {!read_cell} but without decoding the universal key. *)

val versions : t -> column:string -> pk:string -> (Universal_key.t * string) list
(** Every version of one cell, oldest first. *)

val range_latest : t -> column:string -> pk_lo:string -> pk_hi:string -> (Universal_key.t * string) list
(** Latest version of each cell of [column] with pk in the range. *)

val range_latest_values : t -> column:string -> pk_lo:string -> pk_hi:string -> (string * string) list
(** Hot path: like {!range_latest} but yielding (pk, value) without full key
    decoding. *)

val cell_count : t -> int
(** Total stored cell versions. *)
