(** The one request/response vocabulary every system boundary speaks.

    The in-process non-intrusive design ({!Combined}) and the TCP server
    ([lib/server]) share these codecs, so there is exactly one decoder for
    untrusted request bytes and one for response bytes — both routed
    through the {!Spitz_storage.Wire.decode} Malformed contract.

    The vocabulary is the verifying session's: the only write is the
    token-carrying {!Apply}, and verified reads name the block height they
    are pinned at. The retired blind-write and live-ledger proof tags
    (['P'] put, ['D'] delete, ['C'] commit, ['r'] retract, ['p'] prove,
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
  | Receipts of int
      (** write receipts of the block at this height *)

val write_request : Spitz_storage.Wire.writer -> request -> unit
(** Append the request's wire bytes to a writer — clients reuse one
    per-session writer and frame straight from its buffer, skipping the
    per-message [encode_request] string. *)

val encode_request : request -> string
val decode_request : string -> request
(** Raises {!Spitz_storage.Wire.Malformed} on bad input. *)

type anchor = {
  root : Spitz_crypto.Hash.t;
  size : int;
  consistency : Spitz_crypto.Hash.t list;
      (** append-only proof from the size named in the [Anchor] request *)
}

type response =
  | Committed of int                               (** block height *)
  | Value of string option
  | Entries of (string * string) list
  | ValueProof of string option * string option
      (** value plus encoded read proof (always [Some] from a pinned read;
          the option is kept so the wire bytes stay unchanged) *)
  | EntriesProof of (string * string) list * string option
  | BatchProof of string option list * string
      (** values in key order plus one encoded batch proof *)
  | AnchorResp of anchor
  | ReceiptList of string list                     (** encoded write receipts *)
  | Below_horizon of int
      (** a pinned read below the server's horizon (carried): the block's
          index instance is not retained; pin a block at or above it *)
  | Error of string

val write_response : Spitz_storage.Wire.writer -> response -> unit
(** Append the response's wire bytes to a writer — the server reuses one
    per-connection writer and frames replies straight from its buffer. *)

val encode_response : response -> string
val decode_response : string -> response
(** Raises {!Spitz_storage.Wire.Malformed} on bad input. Proof payloads are
    opaque here; decode them with the matching ledger wire codec. *)

val call : t -> request -> serve:(request -> response) -> response
(** Round-trip a request through full marshalling on both sides. *)
