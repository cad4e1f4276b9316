(** The virtual cell store (paper section 5): immutable, content-addressed
    cell versions, each named by its universal key (column, pk, ts, value
    hash). One B+-tree entry per cell holds the cell's versions newest
    first. Lookups and inserts hold one lock, so readers may run beside a
    committer; values are read from the object store after it. *)

open Spitz_storage

type t

val create : ?store:Object_store.t -> unit -> t

val store : t -> Object_store.t

val write_cell :
  t -> column:string -> pk:string -> ts:int -> ?vhash:Spitz_crypto.Hash.t -> string -> unit
(** Append one immutable cell version; the value is content-addressed into
    the object store. [vhash], when the caller already has it, must be the
    value's [Hash.of_string]; the value is then not hashed again. A version
    with the same [ts] and value hash as a stored one replaces it. Raises
    [Invalid_argument] if [column] or [pk] contains NUL. *)

val add_cell :
  t -> column:string -> pk:string -> ts:int -> vhash:Spitz_crypto.Hash.t ->
  Spitz_crypto.Hash.t -> unit
(** Index one cell version whose value {!write_cell} already stored at the
    given address (its [put_blob] address). Nothing is put, so restoring
    cells from a saved store does no second hashing or put work. *)

val delete_cell : t -> column:string -> pk:string -> ts:int -> unit
(** Append a tombstone version: the cell reads as absent from this timestamp
    on, while older versions stay reachable by [ts]. *)

val read_value : ?ts:int -> t -> column:string -> pk:string -> string option
(** The newest version at or below [ts] (default: latest). Absent includes
    "newest version is a tombstone". *)

val versions : t -> column:string -> pk:string -> (Universal_key.t * string) list
(** Every version of one cell, oldest first, tombstones left out. *)

val range_latest_values : t -> column:string -> pk_lo:string -> pk_hi:string -> (string * string) list
(** (pk, value) of the latest version of each cell of [column] with pk in
    [pk_lo, pk_hi], in pk order; cells whose latest version is a tombstone
    are left out. *)

val cell_count : t -> int
(** Total stored cell versions, tombstones included. *)
