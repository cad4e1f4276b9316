(** The one request/response vocabulary every system boundary speaks.

    The in-process non-intrusive design ({!Combined}) and the TCP server
    ([lib/server]) share these codecs, so there is exactly one decoder for
    untrusted request bytes and one for response bytes — both routed
    through the {!Spitz_storage.Wire.decode} Malformed contract.

    The vocabulary is the verifying session's: the writes are the
    token-carrying {!Apply} and its conditional form {!Apply_if}, and
    verified reads name the block height they are pinned at. The retired
    blind-write and live-ledger proof tags (['P'] put, ['D'] delete, ['C'] commit, ['r'] retract, ['p'] prove,
    ['q'] prove-range) and the ['u'] acknowledgement decode as
    {!Spitz_storage.Wire.Malformed}, so a server rejects them.

    The in-process {!call} pays full request/response marshalling with no
    artificial sleeps: the modelled cost is the real serialization work a
    system boundary imposes. *)

type stats = {
  calls : int;
  bytes_out : int;
  bytes_in : int;
}
(** A consistent snapshot of the boundary counters. *)

type t

val create : unit -> t

val stats : t -> stats
(** Counter snapshot; updates are atomic, so concurrent callers never lose
    increments and this never tears. *)

type request =
  | Get of string                (** unverified point read at the head *)
  | Range of string * string     (** unverified range read at the head *)
  | GetBatch of int * string list
      (** verified batch read pinned at a block height: one proof per set *)
  | SnapGet of int * string
      (** verified point read pinned at a block height *)
  | SnapRange of int * string * string
      (** verified range read pinned at a block height *)
  | Anchor of int
      (** digest fetch; the int is the client's currently pinned journal
          size (0 = none), answered with a consistency proof from there *)
  | Apply of { token : string; puts : (string * string) list; deletes : string list }
      (** idempotent write batch: a server commits each [token] at most
          once, so a client may blindly retry after a connection loss *)
  | Apply_if of {
      token : string;
      reads : (string * int) list;
      puts : (string * string) list;
      deletes : string list;
    }
      (** {!Apply} conditional on a read set: each [(key, h)] says the
          batch was computed from [key] as of block [h] ([-1]: before the
          first block). Answered [Conflict] when a later block wrote one of
          them, and the token is then free to send again *)
  | Receipts of int
      (** write receipts of the block at this height *)

val write_request : Spitz_storage.Wire.writer -> request -> unit
(** Append the request's wire bytes to a writer — clients reuse one
    per-session writer and frame straight from its buffer, skipping the
    per-message [encode_request] string. *)

val encode_request : request -> string
val decode_request : string -> request
(** Raises {!Spitz_storage.Wire.Malformed} on bad input. *)

val decode_request_slice : Spitz_storage.Slice.t -> request
(** {!decode_request} over a payload window, e.g. a frame buffer the caller
    reuses: every string in the request is a copy. *)

type anchor = {
  root : Spitz_crypto.Hash.t;
  size : int;
  consistency : Spitz_crypto.Hash.t list;
      (** append-only proof from the size named in the [Anchor] request *)
}

type ('read, 'batch) answer =
  | Committed of int                               (** block height *)
  | Value of string option
  | Entries of (string * string) list
  | ValueProof of string option * 'read option
      (** value plus read proof (always [Some] from a pinned read; the
          option is kept so the wire bytes stay unchanged) *)
  | EntriesProof of (string * string) list * 'read option
  | BatchProof of string option list * 'batch
      (** values in key order plus one batch proof *)
  | AnchorResp of anchor
  | ReceiptList of string list                     (** encoded write receipts *)
  | Below_horizon of int
      (** a pinned read below the server's horizon (carried): the block's
          index instance is not retained; pin a block at or above it *)
  | Conflict of { key : string; height : int }
      (** an [Apply_if] whose read of [key] no longer holds: the block at
          [height] wrote it since; nothing was committed *)
  | Error of string
(** A response over any proof representation. The wire grammar is one
    function pair ({!write_answer} / {!read_answer}) for every
    representation: a proof travels as its codec's bytes, length-prefixed. *)

type response = (string, string) answer
(** Proofs as opaque strings — the bytes of the ledger's
    [encode_read_proof] / [encode_batch_proof]. *)

val write_answer :
  read:(Spitz_storage.Wire.writer -> 'read -> unit) ->
  batch:(Spitz_storage.Wire.writer -> 'batch -> unit) ->
  Spitz_storage.Wire.writer -> ('read, 'batch) answer -> unit
(** Append the answer's wire bytes to a writer, each proof encoded in place
    by [read] or [batch] (e.g. the ledger's [write_read_proof] /
    [write_batch_proof]): no proof string is built. *)

val read_answer :
  read:(Spitz_storage.Wire.reader -> 'read) ->
  batch:(Spitz_storage.Wire.reader -> 'batch) ->
  Spitz_storage.Wire.reader -> ('read, 'batch) answer
(** The inverse of {!write_answer}: each proof codec reads exactly its
    length-prefixed window. *)

val decode_answer :
  read:(Spitz_storage.Wire.reader -> 'read) ->
  batch:(Spitz_storage.Wire.reader -> 'batch) ->
  Spitz_storage.Slice.t -> ('read, 'batch) answer
(** {!read_answer} over a whole payload window, under the
    {!Spitz_storage.Wire.decode} Malformed contract. The window may be a
    frame buffer the caller reuses: every string in the answer is a copy,
    and so must be whatever [read] and [batch] return. *)

val write_response : Spitz_storage.Wire.writer -> response -> unit
(** Append the response's wire bytes to a writer. *)

val encode_response : response -> string
val decode_response : string -> response
(** Raises {!Spitz_storage.Wire.Malformed} on bad input. Proof payloads are
    opaque here; decode them with the matching ledger wire codec. *)

val call : t -> request -> serve:(request -> response) -> response
(** Round-trip a request through full marshalling on both sides. *)
