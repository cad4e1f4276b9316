(** Durable segmented write-ahead object log with leader/follower group
    commit.

    The log is a {e directory} of numbered segment files ([wal.000001],
    [wal.000002], ...). Each segment is an append-only run of opaque
    records, framed as

    {v  length (4 bytes LE) | crc32 (4 bytes LE) | payload  v}

    where the CRC covers the length bytes and the payload. The log is the
    durability gap-filler between snapshots: every ledger commit appends
    one record to the highest-numbered (active) segment, and recovery
    replays every live segment in order on top of the last snapshot.

    {!rotate} seals the active segment and opens the next — one file
    create plus a directory fsync, microseconds — so a checkpoint can
    claim "everything up to here" under the database commit lock and then
    write its snapshot outside it while commits proceed into the new
    segment. {!retire} deletes sealed segments once a durable snapshot has
    made their records redundant.

    Recovery ({!replay}) accepts the longest valid prefix of the {e last}
    segment: it stops at the first record whose frame is truncated or
    whose CRC fails and (by default) truncates that torn tail in place — a
    crash mid-append must never reject the log wholesale, only lose the
    record(s) being written. Sealed (non-final) segments were fully
    written and fsynced before rotation returned, so damage there is real
    corruption: replay raises {!Corrupt} rather than silently dropping the
    records that chained after it.

    Every segment starts with a version header ({!segment_header}),
    written when the segment is created. Version 2 segments carry the
    durable database's logical records (one commit's batch each). A
    segment without the header — the physical-record segments of earlier
    releases — is refused with {!Corrupt}, whose message names the way
    out: open the database with the earlier release and checkpoint it. A
    final segment that is a strict prefix of the header (a crash between
    its creation and its header write) is a torn tail like any other.
    The log's size figures ({!size}, {!stats}) count framed records and
    exclude the headers; {!replay}'s byte accounting is of whole files.

    {2 Group commit}

    The log is safe for concurrent appenders (multiple domains). Under
    [Always] and [Group], appends run a two-phase leader/follower protocol:
    {!submit} frames the record into an in-memory batch (no syscall), and
    {!wait} blocks until that record is durable. The first waiter of a
    non-durable batch elects itself leader, swaps the batch out (double
    buffering — later submissions keep accumulating while the leader is on
    the disk), writes {e every} pending frame in a single [write], fsyncs
    once, and wakes all waiters. The invariant: {!wait} never returns
    before the record of its ticket is written {e and} fsynced, so no
    committer is acknowledged before its record is durable, yet [n]
    concurrent committers share one [write] and one [fsync].

    Under [Interval]/[Never], {!submit} writes the frame immediately (one
    [write] syscall per record, whole-record atomicity against process
    death preserved) and {!wait} is a no-op; durability is the policy's
    batching ([Interval]) or the OS's ([Never]). *)

type sync_policy =
  | Always          (** every committer durable before ack; concurrent
                        committers are coalesced into one write+fsync *)
  | Interval of int (** fsync every n appends — durability lags by < n *)
  | Never           (** no explicit fsync; the OS flushes eventually *)
  | Group of { max_batch : int; max_delay_us : int }
  (** like [Always] (ack = durable), and like it the leader lingers for
      more committers only when at least 3 are evident (the last batch
      coalesced three records, two queued behind the last flush, or three
      are pending); [Group] sets that linger's bounds: up to [max_delay_us]
      microseconds while fewer than [max_batch] records are pending, where
      [Always] lingers about one fsync's cost. One or two committers never
      linger. *)

exception Corrupt of string
(** Raised by {!replay} when a sealed (non-final) segment is damaged:
    sealed segments cannot legitimately carry torn tails, so the damage
    cannot be repaired by truncation without silently losing the records
    that chained after it. Also raised by {!replay}, {!replay_segment} and
    {!open_log} for a segment without the version header. *)

exception Failed of string
(** The log is stopped: a [write] or [fsync] of its records failed with an
    I/O error, so they may or may not be on disk and nothing after them
    may be acknowledged. The first such error stops the log for good:
    every {!wait} not yet settled raises it (none blocks on the failed
    flush), and so does every later {!submit}, {!wait}, {!sync} and
    {!rotate}. The message names the failed call. A crash point's
    [Fault.Crash] is not an I/O error: it still wedges the handle as the
    process death it stands for. *)

val segment_header : string
(** The bytes every segment starts with: a magic and the format version
    (2). *)

type t

type ticket
(** A claim on the durability of one submitted record. *)

val open_log : ?sync:sync_policy -> string -> t
(** Open (creating if absent) the log directory at [path] for appending;
    new records go to the end of the highest-numbered segment, which gets
    its version header first if it is empty. Raises [Invalid_argument] if
    [path] is a regular file, and {!Corrupt} if the active segment is not
    empty and lacks the header. Default policy: [Always]. *)

val check_failed : t -> unit
(** Raise {!Failed} if the log has stopped — a cheap check a caller makes
    before work that ends in a {!submit}. *)

val submit : t -> string -> ticket
(** Enqueue one record (thread-safe, non-blocking under [Always]/[Group]:
    the record is framed into the in-memory batch only). The record is
    guaranteed on disk once {!wait} on the returned ticket returns. Under
    [Interval]/[Never] the frame is written (not necessarily fsynced)
    before [submit] returns and the ticket is already settled. *)

val submit_slice : t -> Slice.t -> ticket
(** {!submit} of a view: the record is copied once, into the batch buffer
    (or the write scratch under [Interval]/[Never]), and its CRC is folded
    off the view, so the caller may reuse the viewed buffer as soon as this
    returns. Frames are byte-identical to {!submit} of the same bytes. *)

val wait : t -> ticket -> unit
(** Block until the ticket's record is durable. The first waiter becomes
    the flush leader: one coalesced [write] + one [fsync] covers every
    record submitted so far, then all their waiters are released. Crash
    points (in the leader): ["wal.flush.mid_batch"] (an exact record prefix
    of a multi-record batch written, then death), ["wal.append.torn"]
    (write torn mid-frame), ["wal.append.before_sync"] (batch written, not
    yet fsynced). I/O error point (in the leader): ["wal.flush.io"]
    ({!Fault.hit_io}: the batch's write fails with [EIO]). Raises
    {!Failed} once the log has stopped and the record is not durable. *)

val append : t -> string -> unit
(** [submit] + [wait]: append one record and return when the sync policy's
    durability guarantee holds for it. Thread-safe. *)

val sync : t -> unit
(** Flush any pending batch and force an fsync now, regardless of policy. *)

val rotate : t -> string list
(** Seal the active segment and open the next: drain any pending batch,
    fsync the active segment (sealed segments are always fully durable,
    under every policy), create the next numbered segment, fsync the
    directory, and switch appends over to it. Returns the paths of all
    sealed segments, oldest first. Thread-safe against concurrent
    appenders; the records acknowledged before [rotate] returned are
    exactly the records in the sealed segments. Crash points:
    ["rotate.begin"] (active segment drained+fsynced, next not yet
    created), ["rotate.after_create"] (next segment created and durable,
    switch-over not yet made). *)

val retire : t -> int
(** Delete every sealed segment, oldest first, then fsync the directory;
    returns the number of segments deleted. Called after a checkpoint
    snapshot has made the sealed records redundant. Deleting oldest-first
    means a crash partway leaves a suffix of the sealed segments — still a
    valid log whose records are all snapshot-covered. Crash points:
    ["checkpoint.before_retire"] (nothing deleted yet),
    ["checkpoint.mid_retire"] (fires after each deletion). *)

val path : t -> string
(** The log directory. *)

val policy : t -> sync_policy

val size : t -> int
(** Total log size in bytes: every live segment on disk {e plus} frames
    submitted but still sitting in the in-memory group-commit batch, so it
    counts acknowledged-or-pending work, not just what the last flush
    happened to write. *)

type stats = {
  records : int;       (** records submitted over the handle's lifetime *)
  fsyncs : int;        (** fsyncs issued over the handle's lifetime *)
  rotations : int;     (** segment rotations over the handle's lifetime *)
  segments : int;      (** live segments right now (sealed + active) *)
  disk_bytes : int;    (** record bytes on disk across all live segments
                           (headers excluded) *)
  pending_bytes : int; (** frame bytes in the unflushed in-memory batch *)
  lingers : int;       (** group-commit linger slices slept over the
                           handle's lifetime; 0 for a lone committer *)
}

val stats : t -> stats
(** Counters of this handle. [records / fsyncs] is the achieved
    group-commit batch size — 1.0 means no coalescing happened, higher
    means committers shared flushes. *)

val close : t -> unit
(** Drain any pending batch, fsync, and close. Idempotent. I/O errors
    from the drain or the fsync propagate (the file descriptor is closed
    regardless) — a close that could not make the last acknowledged
    records durable must not look clean. Must not race concurrent
    appenders. *)

type replay_result = {
  records : string list; (** valid records, in append order across segments *)
  good_bytes : int;      (** total valid bytes across live segments, headers
                             included *)
  torn_bytes : int;      (** bytes discarded from the final segment's tail
                             (a torn header counts whole) *)
  live_segments : int;   (** segments found on disk *)
}

val replay : ?repair:bool -> string -> replay_result
(** Replay every live segment of the log directory at [path] in order
    (missing directory = empty log; a regular file at [path] raises
    [Invalid_argument]). Torn-tail tolerance applies only to the {e last} segment; with
    [repair] (the default) its torn tail is truncated in place so the next
    append cannot splice onto garbage. A short or CRC-failing frame in any
    earlier segment raises {!Corrupt}. *)

val replay_segment : ?repair:bool -> string -> replay_result
(** Replay one segment {e file} (missing file = empty): the longest valid
    record prefix, with [repair] truncating a torn tail in place. This is
    the per-file primitive {!replay} applies to each segment; exposed for
    tests and fuzzing that target a single segment's framing. *)

val fsync_dir : string -> unit
(** Fsync a directory, making a rename inside it durable. A failure to open
    or fsync it raises [Unix.Unix_error]; only a filesystem that refuses to
    fsync directories ([EINVAL]) is let through. I/O error point:
    ["wal.fsync_dir"] ({!Fault.hit_io}). *)
