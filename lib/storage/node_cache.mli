(** Lock-striped LRU cache of decoded index nodes, keyed by content address.

    Traversals of the authenticated indexes re-decode every node from its
    serialized bytes on each visit; this cache memoizes the decode. Because
    objects are content-addressed and immutable, an address can never map to
    different bytes, so the cache needs no invalidation — the only
    correctness caveat is deletion, which only compaction does and which
    callers handle by consulting {!Object_store.mem} before trusting a hit.
    A writer that supersedes a node takes it out ({!take}), so a cache fed
    that way holds live nodes and what readers decode, not every version.

    The key space is split across 16 stripes by the first byte of the
    address (uniform, since addresses are SHA-256 outputs). Each stripe is an independent LRU with its own mutex and
    counters, so concurrent readers touching different nodes rarely contend;
    capacity and eviction are per-stripe (total capacity is divided evenly).
    Entries are polymorphic so each index family caches its own node type.
    All operations are domain-safe. *)

open Spitz_crypto

type 'a t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
}

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 65536) is the maximum number of cached nodes,
    divided evenly across the 16 stripes — each stripe evicts its own least
    recently used entry beyond its share, so the effective total is
    [ceil (capacity / 16) * 16]. Raises [Invalid_argument] when
    [capacity < 1]. *)

val capacity : 'a t -> int
(** The effective total capacity after per-stripe rounding. *)

val length : 'a t -> int
(** Total entries across all stripes (consistent snapshot). *)

val stats : 'a t -> stats
(** Merged hit/miss/eviction counters. Taken with every stripe locked, so
    the snapshot is consistent — concurrent operations are either fully
    included or fully excluded, never torn across stripes. *)

val reset_stats : 'a t -> unit
(** Zero the hit/miss/eviction counters of every stripe atomically (entries
    are kept). Benchmarks call this at the start of each command so hit
    rates are per-run, not cumulative. *)

val find : 'a t -> Hash.t -> 'a option
(** Look up a decoded node, promoting it to most recently used within its
    stripe. Counts a hit or a miss. *)

val add : 'a t -> Hash.t -> 'a -> unit
(** Insert (or refresh) a decoded node, evicting the stripe's LRU entry when
    the stripe is over its share of the capacity. *)

val take : 'a t -> Hash.t -> 'a option
(** [find] that also drops the entry: the caller is about to supersede the
    node, so only readers of an older version could still want it, and they
    decode it again. Counts a hit or a miss. *)

val find_or_add : 'a t -> Hash.t -> load:(unit -> 'a) -> 'a
(** [find] then, on miss, [load ()] (run outside any cache lock) and [add].
    Concurrent misses on the same address may both run [load]; by content
    addressing both decode the same bytes, so the duplicate insert is
    harmless. *)

val clear : 'a t -> unit
(** Drop every entry (counters are kept). *)
