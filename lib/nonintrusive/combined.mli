(** The non-intrusive design (paper Figure 3, evaluated in section 6.2.3): an
    unmodified underlying database (the immutable KVS) plus a separate ledger
    database. Every operation crosses at least one system boundary through
    {!Ipc} with full request/response marshalling, in the TCP server's
    vocabulary: writes are [Apply] batches committed to both systems
    atomically, and verified reads are [SnapGet] / [SnapRange] at the
    ledger's head height. *)

module L : module type of struct include Spitz_ledger.Ledger.Default end

type t

val create : unit -> t

val ipc_stats : t -> Ipc.stats

val put : t -> string -> string -> unit
(** Write to the underlying database and commit to the ledger (two boundary
    crossings). *)

val delete : t -> string -> unit
(** Delete from the underlying database and record the retraction in the
    ledger (two boundary crossings). *)

val get : t -> string -> string option
(** From the underlying database. *)

val get_verified : t -> string -> string option * L.read_proof option
(** Value from the underlying database, proof from the ledger database — two
    crossings ([None] proof, and one crossing, before the first write). *)

val range : t -> lo:string -> hi:string -> (string * string) list

val range_verified :
  t -> lo:string -> hi:string -> (string * string) list * L.read_proof option

val digest : t -> Spitz_ledger.Journal.digest

val verify_read :
  digest:Spitz_ledger.Journal.digest -> key:string -> value:string option ->
  L.read_proof -> bool

val verify_range :
  digest:Spitz_ledger.Journal.digest -> lo:string -> hi:string ->
  entries:(string * string) list -> L.read_proof -> bool
