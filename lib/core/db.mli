(** The Spitz database facade — the public API the server and the schema
    and SQL layers run on.

    Reads and writes follow the paper's section 5.1 pipeline. Every write,
    whatever layer issues it, enters the ledger through {!commit}: the
    ledger's unified index is updated and the block appended, the same
    batch is applied to the cell store (and inverted index), and on a
    durable database the commit returns only once its log record meets the
    sync policy. A point read by key, and a key's history, answer from the
    cell store, a hash table of cells. A range, and every verified read,
    answers from the head {!snapshot} of the ledger's unified index, where
    the proof is the same traversal that locates the data — so {!range}
    and {!range_verified} return the same entries. The SQL layer's column
    scans are {!range}s too.

    Keys and cells: a key containing ['\x1f'] names the cell
    [(column, pk)] split at the first separator (the schema layer's
    [table.col\x1fpk] keys); any other key is a cell of the default
    column. {!get}, {!get_at} and {!history} read any key; {!range} and
    {!range_verified} see every ledger key in the interval, SQL catalog
    keys included. *)

open Spitz_storage
open Spitz_ledger

module L : module type of struct include Ledger.Default end
(** The ledger instantiation this database runs on (Merkle B+-tree index);
    exposes the proof types below. *)

module V : module type of struct include Verifier.Default end
(** The matching client-side verifier. *)

type t

val open_db : ?store:Object_store.t -> ?with_inverted:bool -> unit -> t
(** A fresh database. Its KV surface lives in the cell-store column ["v"];
    [with_inverted] enables the inverted value index over every cell's
    value. *)

val store : t -> Object_store.t
val ledger : t -> L.t
(** The ledger behind the database. Read it freely; writing to it directly
    would bypass the cell store, the commit lock and the log — use
    {!commit}. *)

val catalog_column : string
(** The column of the SQL catalog's keys ([catalog_column ^ "\x1f" ^ table]).
    The catalog is ledger metadata: writes to this column get no cell, and
    {!get} never finds them — read them from {!ledger}. *)

val cells : t -> Cell_store.t
val inverted_index : t -> Spitz_index.Inverted.t option

val cell_count : t -> int
(** Total cell versions stored (not distinct keys). *)

(** {1 Writes} *)

val commit : t -> ?statements:string list -> Ledger.write list -> int
(** The one write path: one batch of puts and deletes as one ledger block.
    Deletes land as tombstones in both the ledger index and the cell store,
    so the verifiable surface and the query surface agree on absence.
    [statements] are recorded in the block for audit.

    Thread-safe: any number of domains may commit concurrently (this covers
    every write — {!put}, {!put_batch}, {!delete}, the schema and SQL layers
    and the server all funnel here).
    Value hashing runs before the internal commit lock, the WAL durability
    wait (durable databases) runs after it, so committers overlap hashing
    and fsync I/O while blocks still enter the ledger one at a time —
    digests, proofs and audits are byte-identical to committing the same
    batches serially in lock-acquisition order. The cell reads ({!get},
    {!get_at}, {!history}) are safe beside a commit, since the cell store
    locks each lookup, but they are not atomic per block: a read racing a
    commit may see some of its writes and not others, and before the
    commit is durable. A pinned {!snapshot} sees whole committed blocks.

    On a durable database whose log has stopped on an I/O error, the
    commit raises {!Spitz_storage.Wal.Failed}: the one whose record the
    failed flush held after its block entered the ledger, every later one
    before. *)

val put : t -> string -> string -> int
(** Write one key; commits one ledger block and returns its height. Updates
    append versions — nothing is overwritten. *)

val delete : t -> string -> int
(** Delete one key (one ledger block). Reads return [None], range scans skip
    it, and the ledger proves the absence; older versions stay readable
    through {!get_at} and {!history}. *)

val put_batch : t -> ?statements:string list -> (string * string) list -> int
(** Commit many writes as one ledger block (one transaction). [statements]
    are recorded in the block for audit. *)

val put_verified : t -> string -> string -> int * L.write_receipt
(** {!put}, plus the write receipt proving the commit under the digest. *)

(** {1 Reads} *)

val get : t -> string -> string option
(** Latest committed value. *)

val get_at : t -> height:int -> string -> string option
(** The value as of a given ledger block (historical snapshot). *)

val get_verified : t -> string -> string option * L.read_proof option
(** Value plus its integrity proof: the head snapshot's
    {!Snapshot.get_verified} ([None] proof only on an empty database). *)

val get_batch_verified :
  t -> string list -> string option list * L.batch_read_proof option
(** Values for the keys (in input order) plus {e one} proof for the whole
    set: a single journal anchor and the deduplicated union of the keys'
    index paths — smaller to ship and cheaper to verify than per-key
    proofs. The head snapshot's {!Snapshot.get_batch_verified}. *)

val range : t -> lo:string -> hi:string -> (string * string) list
(** Latest values for keys in [lo..hi], in key order: the head snapshot's
    {!Snapshot.range}, the entries {!range_verified} proves. *)

val range_verified :
  t -> lo:string -> hi:string -> (string * string) list * L.read_proof option
(** Range results under one proof covering the whole answer — sound against
    omissions, fabrications, and substitutions. The head snapshot's
    {!Snapshot.range_verified}. *)

val history : t -> string -> (int * string) list
(** Every committed version of a key as (block height, value), oldest
    first. *)

(** {1 Snapshot reads — the concurrent read path}

    A {!snapshot} pins exactly one committed block state: the ledger head
    view the serial commit section published last (header, digest,
    precomputed journal inclusion proof, index instance). Pinning the
    latest state is one atomic load — no lock — and every read through the snapshot runs outside
    [commit_lock], concurrently with any number of committers and other
    readers. Proofs verify against {!Snapshot.digest}, the digest as of the
    pinned block. *)

type snapshot

exception Below_horizon of { height : int; horizon : int }
(** A pin at [height] below the {!horizon}: that block's index instance is
    not retained, so nothing can be read or proven there. A client answers
    it by pinning a newer block (the head always is retained). *)

val horizon : t -> int
(** The lowest height from which every block's index instance is retained.
    [0] on an in-memory database that has kept every instance. A reopen
    from a durable checkpoint sets it to the checkpoint's head block (or
    lower, where older blocks share that instance). On a durable handle
    every commit raises it to keep the newest {!retained_instances} —
    head − 63 once there are that many blocks — and no higher than a
    running checkpoint's pinned head. *)

val retained_instances : int
(** The index instances a durable handle keeps: 64, the head's and the 63
    before it, plus any a running {!checkpoint} has pinned. Each commit
    past them deletes the index nodes the block leaving the window
    superseded — unless a later block created the same node again, or the
    same bytes are also a value, a block body or a blob part — so the
    live process holds the head instance and the nodes the newest 64
    blocks superseded, not every version. An in-memory database keeps
    every instance. *)

type retention_stats = {
  index_nodes : int;      (** stored objects in the index class: the head
                              instance's nodes and those still retained *)
  filed_nodes : int;      (** superseded nodes filed under the retained
                              blocks, not yet reclaimed *)
  reclaimed_nodes : int;  (** superseded nodes deleted so far *)
}

val retention_stats : t -> retention_stats
(** Counters of a durable handle's reclamation (all [0] in memory). Taken
    under the commit lock. [index_nodes] is at most the head instance's
    node count plus [filed_nodes]. *)

val snapshot : ?height:int -> t -> snapshot option
(** Pin the latest committed state ([None] on an empty database); lock-free
    and safe from any domain. With [height], pin the state as of that block
    instead: the head's height returns the head, lock-free; an older block
    briefly takes the commit lock. Raises {!Below_horizon} when [height] is
    below the {!horizon}, and [Invalid_argument] when it is out of
    range.

    A pin does not hold its instance: on a durable handle, once
    {!retained_instances} newer blocks commit the horizon passes it, its
    nodes are reclaimed, and a read through it — one already under way
    included — raises {!Below_horizon}. The head reads ({!get_verified},
    {!range}, ...) then read again at the new head. *)

val proof_cache_stats : unit -> Spitz_storage.Node_cache.stats
(** Hit/miss/eviction counters of the server-side proof cache (memoized
    get/batch/range proof construction, keyed by index root + key set). *)

val reset_proof_cache_stats : unit -> unit

module Snapshot : sig
  val height : snapshot -> int
  (** The pinned block's height. *)

  val digest : snapshot -> Journal.digest
  (** What the snapshot's proofs verify against. *)

  val index_root : snapshot -> Spitz_crypto.Hash.t

  val valid : t -> snapshot -> bool
  (** [true] while the pinned height is at or above the database's
      {!horizon}: its index instance is retained, so every read through the
      snapshot can be served and proven. On a durable handle every commit
      past the {!retained_instances} window can raise the horizon past a
      pin, after which its reads raise {!Below_horizon}. *)

  val get : snapshot -> string -> string option

  val range : snapshot -> lo:string -> hi:string -> (string * string) list
  (** Entries in key order. *)

  val get_verified : snapshot -> string -> string option * L.read_proof
  val get_batch_verified :
    snapshot -> string list -> string option list * L.batch_read_proof
  val range_verified :
    snapshot -> lo:string -> hi:string -> (string * string) list * L.read_proof
  (** Verified reads from the pinned state; proof construction is memoized
      in the server-side proof cache. No [option] on the proof: a snapshot
      only exists for a non-empty ledger. Every read through a snapshot
      raises {!Below_horizon} once the horizon has passed the pin and the
      read meets a reclaimed node. *)
end

val search_value : t -> string -> Universal_key.t list
(** Inverted-index lookup: cells currently or historically holding exactly
    this value (requires [with_inverted]). *)

(** {1 Verification surface (client side)} *)

val digest : t -> Journal.digest
(** What a verifying client pins: 32 bytes plus a block count. *)

val consistency : t -> old_size:int -> Spitz_adt.Merkle.consistency_proof
(** Proof that the current digest extends the journal of [old_size] blocks.
    Taken under the commit lock, so it is the proof to the digest of the
    moment — but that digest can move before the caller reads it; use
    {!anchor} to get the two together. *)

val anchor : t -> old_size:int -> Journal.digest * Spitz_adt.Merkle.consistency_proof
(** The current digest and the proof that it extends the journal of
    [old_size] blocks, read together under the commit lock — a concurrent
    commit cannot land between them. Raises [Invalid_argument] when
    [old_size] exceeds the current size. *)

val verify_read :
  digest:Journal.digest -> key:string -> value:string option -> L.read_proof -> bool

val verify_batch_read :
  digest:Journal.digest -> items:(string * string option) list ->
  L.batch_read_proof -> bool
(** Check every (key, claimed value) pair of a batched read against its one
    proof. *)

val verify_range :
  digest:Journal.digest -> lo:string -> hi:string ->
  entries:(string * string) list -> L.read_proof -> bool

val verify_write : digest:Journal.digest -> L.write_receipt -> bool

val audit : t -> bool
(** Re-walk every hash link of the journal, and re-verify every block's
    entries against its header through one Merkle multiproof per block. *)

(** {1 Persistence} *)

exception Corrupt of string
(** The one error every persisted-format reader raises on damaged input —
    truncation, bit rot, broken chain links, malformed framing. (An alias of
    {!Spitz_storage.Object_store.Corrupt}.) *)

(** {1 Durability: snapshot + write-ahead log}

    A database on disk lives in a directory holding a [snapshot] (the last
    checkpoint: the content-addressed object stream plus the journal's
    block addresses), a [meta] file (the identity recorded at creation), a
    [lock] file (see {!Locked}) and a [wal] (a directory of numbered
    append-only {!Spitz_storage.Wal} segments logging the commits since).
    Every commit — through {e any} write path of the returned database —
    appends one log record holding its batch (height, statements, puts and
    deletes) and the address of the block body it produced; the sync
    policy decides how often the log is fsynced
    ([Always] / [Group] = every acknowledged commit durable, with
    concurrent committers coalesced into one write+fsync by the log's
    leader/follower protocol, [Interval n] = fsync every n records,
    [Never] = OS-paced). A commit only returns after its log record meets
    the policy's guarantee — under [Always]/[Group] no committer is
    acknowledged before its record is on disk.

    Recovery on {!open_durable} is re-execution: restore the snapshot,
    then run the batch of every valid record past it through {!commit}
    again, in order, and require each to reproduce its logged block body
    (a torn tail of the {e final} segment at the first bad CRC is
    truncated, not rejected; damage in an earlier, sealed segment, and a
    segment without the version header an earlier release did not write,
    are unrepairable corruption), re-validate every journal hash-chain
    link, and re-walk the chain once more before serving reads. Raises
    {!Corrupt} if what remains after tail repair does not verify. A
    restart therefore costs about one in-memory commit per record since
    the last checkpoint; [spitz serve] checkpoints on a graceful shutdown
    so that a restart re-runs nothing.

    Checkpoints do not stop the world: {!checkpoint} holds the commit lock
    only to pin the journal and the head index root and to rotate the log
    to a fresh segment, then marks and writes the snapshot and retires the
    sealed segments while commits proceed.

    What survives a restart: a checkpoint writes every block body, the
    head block's index instance and every value the cell store references
    — not the older index instances. The reopened database has the same
    digest, journal, receipts, audit and cell history ({!get_at},
    {!history}); verified reads pinned below its {!horizon} raise
    {!Below_horizon}. {!set_checkpoint_policy} runs the same
    protocol from a background domain every n logged commits.

    What the live handle keeps: the newest {!retained_instances} index
    instances (and one a running checkpoint has pinned). Each commit past
    them deletes the nodes only older instances needed, so the process
    holds the head instance and the window's superseded nodes however
    many blocks it commits — during the log's re-run at open too. Block
    bodies, values and cell history are kept whole. *)

type durable

exception Locked of int option
(** Raised by {!open_durable} when another process holds the directory
    open: the holder's pid, as its lock file records it ([None] if it
    could not be read). *)

val open_durable :
  ?sync:Spitz_storage.Wal.sync_policy -> ?repair:bool -> ?with_inverted:bool -> string ->
  durable
(** Open (creating if needed) the durable database in directory [dir]; a
    new directory's meta file is fsynced and renamed into place, and the
    rename made durable by a directory fsync. The handle holds an exclusive
    [lockf] lock on [dir/lock] until {!close_durable} or the process exits:
    an open from another process raises {!Locked}; one from the same
    process is not refused.
    [with_inverted] only applies to a freshly created database; an existing
    database's recorded identity (column id and inverted flag, in the meta
    file / snapshot header) wins. Default sync policy: [Always].

    [repair] (default [true]) controls torn-tail handling: with it, a torn
    tail of the log's final segment is truncated in place; without it the
    log is left byte-identical and a torn tail raises {!Corrupt} — strict
    mode surfaces damage instead of silently fixing it. Orphaned
    checkpoint temp files ([snapshot.tmp], [meta.tmp] — debris of a
    checkpoint that crashed before its atomic rename) are removed in
    {e both} modes. *)

val durable_db : durable -> t
(** The live database; all reads and writes go through the normal {!t}
    API — commits reach the log automatically. *)

val checkpoint : durable -> unit
(** Fold the log into a new snapshot without stalling committers. Under
    the commit lock (brief, and independent of history): pin the journal's
    block addresses and the head index root, and rotate the log to a fresh
    segment. Outside it: mark the live set of the pinned state (the bodies,
    the head instance, the value of every put the bodies record and every
    blob descriptor with its chunks), write those objects in snapshot format
    to a temp file, atomic rename, directory fsync, then retire the sealed
    segments. Crash-safe at every step — a failure after the rename only
    leaves redundant log records (skipped on replay); a failure during
    retirement leaves a suffix of snapshot-covered segments (equally
    skipped). A directory fsync that fails raises, and the checkpoint
    counts as failed. The pinned head instance stays in the store until
    the snapshot is written, however many commits pass meanwhile.
    Concurrent calls (including the background checkpointer) are
    serialized against each other, not against commits. *)

type checkpoint_policy =
  | Manual                  (** no background checkpoints; call {!checkpoint} *)
  | Every_n_records of int  (** checkpoint every n logged commits: bounds
                                a crash restart to re-running n commits *)

val set_checkpoint_policy : durable -> checkpoint_policy -> unit
(** Install an automatic checkpoint policy. A non-[Manual] policy starts
    one background domain that watches the log and runs {!checkpoint} when
    the threshold trips; [Manual] stops it (joining any checkpoint in
    progress). A failing background checkpoint is retried with capped
    exponential backoff and counted in {!checkpoint_stats}. The domain is
    stopped automatically by {!close_durable}. *)

type checkpoint_stats = {
  checkpoints : int;          (** completed checkpoints (manual + auto) *)
  auto_checkpoints : int;     (** completed by the background domain *)
  failures : int;             (** attempts that raised *)
  retired_segments : int;     (** log segments deleted by retirement *)
  last_error : string option; (** most recent failure, if any *)
  max_lock_hold_s : float;    (** longest commit-lock hold of one
                                  checkpoint (the pin, the cell-value
                                  collection and the rotation), seconds *)
}

val checkpoint_stats : durable -> checkpoint_stats
(** Lifetime checkpoint counters of this handle. Never blocks, even while
    a checkpoint is running. *)

type open_stats = {
  snapshot_restore_s : float; (** reading the snapshot's object stream *)
  ledger_restore_s : float;
  (** decoding the block bodies, re-validating the chain, reopening the
      index instances, the horizon and the head instance's node
      classification — the rebuild pass minus [cell_rebuild_s] *)
  cell_rebuild_s : float;     (** indexing the bodies' writes into the cell store *)
  log_rerun_s : float;        (** reading the log and re-running its batches *)
  audit_s : float;            (** the final hash-chain walk *)
  objects : int;              (** objects the snapshot restored *)
  blocks : int;               (** blocks the snapshot held *)
  entries : int;              (** block entries the cell pass walked *)
  records : int;              (** log records read *)
}

val open_stats : durable -> open_stats
(** The seconds each phase of the {!open_durable} that made this handle
    took, in order, and what it walked. *)

val sync_durable : durable -> unit
(** Force an fsync of the log now, regardless of policy. *)

val uncheckpointed_blocks : durable -> int
(** Blocks the log holds that the snapshot on disk lacks: what a restart
    would re-run, and what a {!checkpoint} now would fold in. [0] right
    after a checkpoint, and on a database that has never committed. *)

val wal_size : durable -> int
(** Current log size in bytes (what the next {!checkpoint} will fold in):
    all live on-disk segments {e plus} any records still sitting in the
    unflushed in-memory group-commit batch, so size-triggered checkpoints
    cannot lag behind unflushed work. *)

val wal_stats : durable -> Spitz_storage.Wal.stats
(** The log's counters — lifetime records/fsyncs/rotations ([records /.
    fsyncs] is the achieved group-commit batch size) and current
    segments/disk/pending byte figures. *)

val close_durable : durable -> unit
(** Stop the background checkpointer (if any), detach the log from the
    database, then drain, fsync and close the log. Idempotent. I/O errors
    from the final drain/fsync propagate — a close that could not make
    acknowledged records durable does not look clean (the descriptor is
    released and the log detached regardless). Releases the directory's
    lock. The inner {!t} remains usable in memory but no longer logs. *)
