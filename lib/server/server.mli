(** The TCP front-end: a {!Spitz.Db.t} served over loopback/network sockets
    with the {!Spitz_nonintrusive.Ipc} request vocabulary, one
    {!Frame}-framed request and response per round trip.

    Concurrency model: [accept_domains] accept loops, one on a driver
    thread and the others on domains of their own, each spawning one
    handler thread per accepted connection. Reads are served lock-free off
    {!Spitz.Db.snapshot}; writes funnel through the thread-safe
    {!Spitz.Db.commit} group-commit path.
    Backpressure is bounded twice over: at most [max_connections] live
    connections (excess sits in the listen backlog), and within a
    connection the handler serves strictly one request at a time — a
    pipelining client can write ahead, but only as far as the kernel socket
    buffer, never into unbounded server memory.

    Malformed input never crashes the server: a payload the codec rejects
    gets an [Error] response (framing is still intact); a frame whose
    length header or CRC is wrong means the stream has lost framing and the
    connection is dropped. Both paths count in [stats.malformed].

    Idempotent writes: [Apply {token; _}] and its conditional form
    [Apply_if] are the write verbs, and a batch commits at most once per
    token. An [Apply_if] whose read set {!Spitz.Db.commit} refuses is
    answered [Conflict], commits nothing, and frees its token. Tokens are recorded as block statements (prefix ["tx:"]) and the
    token table is rebuilt from the journal on {!start}, so retries are
    safe even across a server restart from durable storage. *)

type config = {
  port : int;            (** 0 picks an ephemeral port; see {!port} *)
  accept_domains : int;  (** accept loops (and so handler-thread domains) *)
  max_connections : int; (** live-connection cap; excess waits in backlog *)
  backlog : int;
}

val default_config : config
(** Loopback-friendly defaults: ephemeral port, 2 accept domains, 64
    connections, backlog 128. *)

type stats = {
  accepted : int;        (** connections accepted over the lifetime *)
  active : int;          (** connections currently open *)
  requests : int;        (** requests served (including error replies) *)
  bytes_in : int;        (** request payload bytes received *)
  bytes_out : int;       (** response payload bytes sent *)
  malformed : int;       (** malformed payloads + frames rejected *)
}

type t

val start : ?config:config -> Spitz.Db.t -> t
(** Bind, listen, and return with the accept loops running (raises
    [Invalid_argument] when [config.accept_domains < 1]). The database
    is shared, not owned: the caller remains free to read and commit
    directly, and closes/persists it after {!stop}. *)

val port : t -> int
(** The bound port (the ephemeral choice when [config.port = 0]). *)

val stats : t -> stats

val respond : Spitz_storage.Wire.writer -> (Spitz_storage.Wire.writer -> unit) -> unit
(** [respond out write] encodes one answer into [out], which it clears
    first: [write] appends the answer. When [write] raises what a single
    request can provoke — {!Spitz.Db.Below_horizon}, {!Spitz.Db.Conflict},
    a stopped log,
    [Malformed], [Invalid_argument], [Not_found] or [Failure] — [out] is
    cleared again and holds exactly the [Below_horizon], [Conflict] or
    [Error] answer,
    whatever [write] had appended before it raised. Every connection
    handler answers through it. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, half-close every live connection
    (receive side), let each handler finish the request it is serving and
    flush its response, then join all handler threads and accept domains.
    Idempotent. *)
