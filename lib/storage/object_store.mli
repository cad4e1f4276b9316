(** Content-addressed, deduplicating object store — the physical layer of the
    ForkBase-like substrate.

    Every object is stored under its SHA-256 digest; writing the same bytes
    twice stores them once. Stats track logical vs physical bytes, which is
    exactly the Figure-1 measurement.

    Objects are immutable and carry no per-object state beyond their bytes:
    there is no reference count. Space is reclaimed in two ways: a store
    that tracks index nodes deletes superseded ones ({!reclaim_node}), and
    a checkpoint marks a live set and {!dump}s only what it holds.

    The store is domain-safe: objects are sharded by address prefix, each
    shard under its own mutex, so reader domains traversing index nodes
    don't serialize against committers on a single lock. *)

open Spitz_crypto

exception Corrupt of string
(** Raised by {!restore} (and by {!Spitz.Db.open_durable}, which re-exports
    it) on a truncated, bit-flipped, or otherwise malformed persisted stream — the
    single error surface for corruption, replacing leaked [End_of_file] /
    [Invalid_argument] exceptions. *)

type t

type stats = {
  mutable puts : int;
  mutable gets : int;
  mutable dedup_hits : int;
  mutable physical_bytes : int;  (** unique bytes actually stored *)
  mutable logical_bytes : int;
  (** bytes handed to a put since {!create}, as if nothing were
      deduplicated; a {!restore} adds none *)
}

val create : unit -> t

val stats : t -> stats
(** A merged snapshot of the per-shard counters, taken with every shard
    locked — consistent, never torn. Mutating the returned record has no
    effect on the store. *)

val object_count : t -> int

val put : t -> string -> Hash.t
(** Store one object (no chunking); returns its content address. Idempotent:
    a put of an address already stored is a dedup hit and stores nothing. *)

val put_writer : t -> Slice.Writer.w -> Hash.t
(** {!put} of a writer's accumulated bytes, zero-copy on the hot half: the
    content address is hashed straight from the writer's buffer, and the
    bytes are materialized into an owned string only when the object is new
    — a dedup hit costs no copy. The writer is untouched and reusable. *)

val put_node : t -> epoch:int -> Slice.Writer.w -> Hash.t
(** {!put_writer} of an index node that block [epoch] (>= 0) created. On a
    store that {!track_index_nodes}, a new object enters the index class
    and one already in it is marked created at [epoch]; an object some
    other put stored stays out of it. Elsewhere it is {!put_writer}. *)

(** {2 The index class}

    A store that tracks index nodes knows which stored objects only an
    index put ever stored, and the block that last created each: what
    {!reclaim_node} needs to delete a superseded node exactly. Every other
    put of the same bytes — a value, a block body, a blob part — takes the
    address out of the class for good, so such an object is never
    reclaimed. Objects a {!restore} brings back are outside the class until
    {!adopt_node}. *)

val track_index_nodes : t -> unit
(** Start keeping the index class (a store that never calls this keeps
    none and pays nothing for it). Call it before the store is shared. *)

val adopt_node : t -> Hash.t -> unit
(** Put a stored object in the index class as created before any block
    still to come — how a reopen classifies the head instance it restored.
    No-op on an object not stored or a store not tracking. *)

val keep : t -> Hash.t -> unit
(** Take an address out of the index class: it is also something other
    than an index node, and is never reclaimed. *)

val reclaim_node : t -> Hash.t -> superseded_at:int -> int
(** Delete [h] when it is in the index class and no block at or after
    [superseded_at] — the block whose batch superseded it — created it
    again; returns the bytes freed, [0] when it is kept. Anything else is
    left alone. *)

val index_node_count : t -> int
(** Objects in the index class. *)

val get : t -> Hash.t -> string option
val get_exn : t -> Hash.t -> string

val mem : t -> Hash.t -> bool

val put_blob : ?hash:Hash.t -> t -> string -> Hash.t
(** Store a value with content-defined chunking when it exceeds the maximum
    chunk size: each chunk becomes an object and the returned hash addresses a
    descriptor listing them. Local edits to large values share all untouched
    chunks with previously stored versions. [hash], when given, must be
    [Hash.of_string data]: a value stored raw goes under it without being
    hashed again. Chunked values, and values that look like a descriptor,
    ignore it. *)

val stores_raw : string -> bool
(** Whether {!put_blob} stores the value as one raw object under its own
    hash — [false] for a value it chunks behind a descriptor. *)

val get_blob : t -> Hash.t -> string option
(** Reassemble a value stored by {!put_blob} (or {!put}). *)

val get_blob_exn : t -> Hash.t -> string

val fold : t -> (Hash.t -> string -> 'a -> 'a) -> 'a -> 'a
(** Fold over every stored object (unspecified order).
    Runs with every shard locked for a consistent view — the callback must
    not call back into the store. *)

val blob_parts : t -> Hash.t -> Hash.t list
(** Chunk addresses referenced by a blob descriptor ([[]] for raw values). *)

val mark_blobs : t -> unit Hash.Table.t -> unit
(** Add to a live set every blob descriptor in the store and the chunk
    addresses it references, so every chunked value stays readable. *)

val dump : live:unit Hash.Table.t -> t -> out_channel -> unit
(** Write the objects whose addresses [live] holds as a length-prefixed
    stream. Each record is
    [varint length | bytes | varint count]; the count is always written as
    1 and {!restore} ignores it. *)

val restore : t -> in_channel -> unit
(** Read a {!dump}ed stream back (the rest of the channel). Content
    addresses are recomputed, so a corrupted stream cannot silently
    alias an existing object. Raises {!Corrupt} on truncated or malformed
    input (oversized or negative lengths are rejected before any
    allocation). Restored objects count toward [physical_bytes] only: a
    restore is not a put. *)
