(** A verifying client session (paper section 5.3, over a real socket): the
    session pins the latest {e verified} journal digest and refuses to
    return any proof-carrying answer that does not verify against a digest
    the pin has provably passed through.

    Trust model: the first {!sync} pins the server's digest as-is (trust on
    first use); every later sync demands an append-only consistency proof
    from the old pin — a server that rewrote or rolled back history fails
    that proof and the session raises {!Verification_failed}. Verified
    reads are snapshot-pinned at the pin's own height ([SnapGet] /
    [GetBatch] / [SnapRange]), so their proofs anchor exactly in the
    trusted digest, commit storms notwithstanding.

    Re-anchor contract: a server keeps the index instances from its
    horizon on — on a durable database the newest 64 blocks', and after a
    restart from a checkpoint none below it. A verified read pinned below
    that horizon, or whose instance the horizon passed while the server
    was reading it, is answered [Below_horizon]; the session
    then {!sync}s once — the new pin passes the same consistency check as
    any other — and repeats the read at the new pin. A verified read may
    therefore be fresher than the pin the call started with, never older,
    and it always verifies against a digest the pin passed through.

    Retry model: every request the session issues is idempotent — reads
    trivially, writes because they travel as [Apply] (or conditional
    [Apply_if]) batches under a unique token the server commits at most
    once. On a connection loss the session
    transparently reconnects and resends, up to [retries] times.

    A session is single-owner: use one per thread. *)

type t

exception Verification_failed of string
(** A proof, receipt, or consistency check failed — the server (or the
    network) returned something inconsistent with the pinned digest. *)

exception Server_error of string
(** The server answered with an [Error] response. *)

val connect : ?retries:int -> port:int -> unit -> t
(** Connect to a server on loopback. [retries] (default 3) bounds
    transparent reconnect attempts per request. *)

val close : t -> unit
(** Idempotent. *)

val digest : t -> Spitz_ledger.Journal.digest option
(** The current pin; [None] before the first {!sync}. *)

val pin_height : t -> int option
(** The block height verified reads are served at: [pin.size - 1]. *)

val sync : t -> unit
(** Fetch the server's digest with a consistency proof from the current
    pin and advance the pin. Called implicitly by writes (read-your-writes)
    and by a verified read while the pin is absent or empty (size 0). *)

(** {1 Writes} — all idempotent [Apply] batches *)

val apply :
  t -> token:string -> puts:(string * string) list -> deletes:string list -> int
(** Commit one batch under an explicit idempotency token; returns the block
    height. Retrying the same token — same session, a new session, or after
    a server restart — returns the original height without recommitting. *)

val put : t -> string -> string -> int
val put_batch : t -> (string * string) list -> int
val delete : t -> string -> int
(** {!apply} under a fresh session-unique token, then {!sync}. *)

val update : t -> string -> (string option -> string) -> int
(** Read-modify-write of one key that loses no update: {!sync}, read the
    key verified at the new pin, and send [f]'s value as an [Apply_if]
    conditional on that read, under a fresh token. When a block since the
    pin wrote the key, the server answers [Conflict] and commits nothing;
    the session counts it in {!conflicts} and starts over, so [f] may run
    more than once. Returns the height of the block that committed, after
    a {!sync}. *)

(** {1 Reads} *)

val get : t -> string -> string option
(** Unverified point read of the server's latest state. *)

val range : t -> lo:string -> hi:string -> (string * string) list
(** Unverified range read. *)

val get_verified : t -> string -> string option
(** Point read at {!pin_height}, proof-checked against the pin before the
    value is returned (after one re-anchor when the pin is below the
    server's horizon). Raises {!Verification_failed} on a bad proof. On an
    empty (never-committed) server there is nothing to verify: returns
    [None]. *)

val get_batch_verified : t -> string list -> string option list
(** Batch read at {!pin_height} under one batch proof (values in input
    order), checked by the session's verifier like {!get_verified}. *)

val range_verified : t -> lo:string -> hi:string -> (string * string) list
(** Range read at {!pin_height} under one range proof. *)

(** {1 Receipts} *)

val receipts : t -> height:int -> Spitz.Db.L.write_receipt list
(** The write receipts of the block at [height], decoded. *)

val verify_receipt : t -> Spitz.Db.L.write_receipt -> bool
(** Check a receipt against the session's trusted digests. Only digests the
    pin has passed through are trusted, so under concurrent commit traffic
    a receipt whose digest the session skipped over verifies [false]. *)

(** {1 Verifier counters} *)

val checked : t -> int
val failures : t -> int
(** Every verified read ({!get_verified}, {!get_batch_verified},
    {!range_verified}) and receipt counts one check, and one failure when
    it does not verify. *)

val conflicts : t -> int
(** [Conflict] answers {!update} has retried. *)
