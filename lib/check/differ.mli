(** Model-based differential driver.

    Each check replays one random {!Trace.trace} against real systems and a
    pure Map-backed reference model, asserting observable equivalence at
    every commit and a battery of end-state invariants. Divergence raises
    {!Divergence} with a description of exactly which observation differed —
    {!Quick} folds the message into the failure report next to the replay
    seed. *)

exception Divergence of string

val check_spitz : Trace.trace -> unit
(** Spitz {!Spitz.Db} vs the model: point reads, range scans, historical
    reads at every committed height, proof verification for every read
    (present {e and} absent keys), batched reads under one proof, write
    receipts, wire round-trips of the proof envelopes, chain audit. [Reopen]
    steps save/load the database through a temp file and assert state
    survives. *)

val check_cross : Trace.trace -> unit
(** The same trace through all comparison systems at once — Spitz, the
    immutable KV store, the non-intrusive combined design, and (on
    delete-free traces) the QLDB-like baseline — asserting every system
    agrees with the model on point reads and range scans, and that each
    system's own proofs verify under its own digest. *)

val check_siri : Trace.trace -> unit
(** The trace's insertions through every SIRI implementation — Merkle
    B+-tree, POS-tree, MPT, MBT (several bucket shapes) — asserting: all
    implementations agree with the model; proofs (point, batch, range)
    verify; reopening each index from its root digest ({!Spitz_adt.Siri.S.at_root})
    reproduces the same digest and contents; and a spot-check that proofs for
    one index {e never} verify claims for a different value. *)

val check_concurrent_commits : Trace.trace -> unit
(** Serializability of the concurrent commit front-end: up to four domains
    race [Db.commit] with disjoint slices of the trace's batches (each block
    tagged with a committer sentinel statement). Asserts the committed order
    recovered from the journal is a valid merge of the per-committer
    sequences; that serially replaying that order yields a bit-identical
    digest; that reads, proofs and the chain audit agree with the model of
    that order; and, on small traces, that brute-force permutation
    enumeration also finds a matching serial order. *)

val check_concurrent_reads : Trace.trace -> unit
(** Linearizability of the lock-free read path: reader domains pin
    {!Spitz.Db.snapshot}s and serve verified reads while committer domains
    race the trace's batches through [Db.commit]. Asserts every snapshot is
    internally consistent (digest size equals pinned height + 1 — the torn
    head-read regression), every proof verifies against its snapshot's own
    digest, every observed (height, key, value) matches the committed prefix
    state [Db.get_at] reports once the storm settles, and head-path proofs
    verify against their own anchors. *)

val check_checkpoint_storm : Trace.trace -> unit
(** Commit storm on a {e durable} database with checkpoints racing it: up to
    three committer domains drive sentinel-tagged commits while a
    manual-checkpoint loop, the automatic background checkpointer
    ([Every_n_records]), and a snapshot reader all run concurrently.
    Asserts no checkpoint attempt fails, every pinned snapshot stays
    internally consistent with verifying proofs, the committed order
    replayed serially reproduces the digest bit-identically, the live audit
    passes, and a reopen from whatever snapshot/segment mix the storm left
    on disk recovers the identical digest and passes the audit. *)

val check_compacted_reopen : Trace.trace -> unit
(** Compacting checkpoints against the live run: the trace runs on a
    durable database with a checkpoint at every [Reopen] step (every other
    one after an empty block); a verifying session pins the head before one
    last commit; the run ends by a close, an abandoned handle, or a crash
    at [checkpoint.after_mark]. Asserts the reopened database has the live
    digest, journal, cell reads and histories, verified reads equal to the
    live run's at every height from its horizon on (the horizon no higher
    than the newest checkpoint's head block), [Below_horizon] below it,
    and that the session — pinned at the old head — reads the reopened
    head's value, re-anchoring when its pin is below the horizon. *)

val check_concurrent_clients : Trace.trace -> unit
(** End-to-end serializability through the TCP layer: up to three verifying
    {!Spitz_server.Session}s over loopback race the trace's batches as
    idempotent [Apply] commits (tokenized with the committer sentinel) mixed
    with proof-checked point and batch reads pinned at each session's
    verified digest. Asserts the committed order recovered from the Apply
    tokens is a valid merge of the per-client sequences; that replaying that
    order serially reproduces the settled digest bit-identically; that every
    client-verified (height, key, value) observation matches
    [Spitz.Db.get_at]; that no session records a verifier failure; that a
    late-arriving session pins exactly the settled digest; and that the
    chain audit passes. Then the same sessions race
    {!Spitz_server.Session.update} increments of two shared counters: each
    final count must equal its acknowledged increments. *)

val check_digest_stability : Trace.trace -> unit
(** The digest is a pure function of the committed history: replaying the
    same trace twice — and through a save/load round-trip — yields identical
    digests, and every prefix digest is extended consistently (journal
    consistency proofs verify). *)
