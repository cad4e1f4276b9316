(** The virtual cell store (paper section 5): immutable, content-addressed
    cell versions, each named by (column, pk, ts, value hash). One hash-table entry per cell holds the cell's versions newest
    first; the table serves point reads, and ordered column scans read the
    ledger's head index instead ({!Db.range}). Lookups and inserts hold one
    lock, so readers may run beside a committer; values are read from the
    object store after it. *)

open Spitz_storage

type t

val create : ?size:int -> ?store:Object_store.t -> unit -> t
(** [size] is the initial table size (default 1024); the table grows past
    it. *)

val store : t -> Object_store.t

val write_cell :
  t -> column:string -> pk:string -> ts:int -> ?vhash:Spitz_crypto.Hash.t -> string -> unit
(** Append one immutable cell version; the value is content-addressed into
    the object store. [vhash], when the caller already has it, must be the
    value's [Hash.of_string]; the value is then not hashed again. A version
    with the same [ts] and value hash as a stored one replaces it. Raises
    [Invalid_argument] if [column] or [pk] contains NUL. *)

val delete_cell : t -> column:string -> pk:string -> ts:int -> unit
(** Append a tombstone version: the cell reads as absent from this timestamp
    on, while older versions stay reachable by [ts]. *)

val restore_version :
  t -> column:string -> pk:string -> ts:int ->
  (unit -> (Spitz_crypto.Hash.t * Spitz_crypto.Hash.t) option) -> unit
(** For a reopen's rebuild, which walks the blocks in height order and each
    block's writes last to first: unless the cell's newest version is
    already at [ts] (a later write of the same block), add the version
    [resolve ()] names as the cell's newest. [Some (vhash, addr)] is a value
    {!write_cell} already stored at [addr], [None] a tombstone. [resolve]
    runs only for a version that lands, under the store's lock, so nothing
    is looked up for a write the block overwrote. Raises [Invalid_argument]
    if [column] or [pk] contains NUL. *)

val read_value : ?ts:int -> t -> column:string -> pk:string -> string option
(** The newest version at or below [ts] (default: latest). Absent includes
    "newest version is a tombstone". *)

val newest_ts : t -> column:string -> pk:string -> int option
(** The timestamp of the cell's newest version, tombstones included:
    [None] when the cell has none. {!Db.commit} validates a read set
    against it. *)

val versions : t -> column:string -> pk:string -> (int * string) list
(** Every version of one cell as [(ts, value)], oldest first, tombstones
    left out. *)

val cell_count : t -> int
(** Total stored cell versions, tombstones included. *)
