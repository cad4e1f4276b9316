(** Client-side verification state (paper section 5.3): the client pins the
    journal digest; every proof is checked against a digest the pin has
    provably passed through; digest advancement requires an append-only
    consistency proof. [Online] mode checks each proof as it arrives;
    [Deferred n] batches checks, trading detection latency for throughput. *)

open Spitz_adt

module Make (Index : Siri.S) : sig
  module L : module type of Ledger.Make (Index)

  type mode = Online | Deferred of int

  type check =
    | Read of string * string option * L.read_proof
    | Range of string * string * (string * string) list * L.read_proof
    | Batch of (string * string option) list * L.batch_read_proof
        (** every (key, claimed value) pair under one batch proof *)
    | Write of L.write_receipt

  type t

  val create : ?mode:mode -> unit -> t

  val digest : t -> Journal.digest option
  (** The current pin; [None] before the first {!sync}. *)

  val checked : t -> int
  val failures : t -> int

  val sync : t -> digest:Journal.digest -> consistency:Merkle.consistency_proof -> bool
  (** Pin the first digest, or advance the pin; [false] (and a recorded
      failure) if the consistency proof does not show an append-only
      extension. Every successfully synced digest joins the trusted set that
      proofs may anchor in. *)

  val submit : t -> check -> bool option
  (** [Some ok] when verified now (online, or a deferred batch just filled);
      [None] when queued. *)

  val submit_read : t -> key:string -> value:string option -> L.read_proof -> bool option
  val submit_range :
    t -> lo:string -> hi:string -> entries:(string * string) list -> L.read_proof ->
    bool option
  val submit_batch :
    t -> items:(string * string option) list -> L.batch_read_proof -> bool option
  val submit_write : t -> L.write_receipt -> bool option

  val flush : t -> bool
  (** Verify everything queued; [true] iff all passed. Queued checks are
      coalesced first: one journal-anchor job per distinct (digest, height,
      header) unit, and read claims whose (index root, key, value) triple was
      already proven — in an earlier flush or earlier in this one — are
      skipped via a persistent verified-set cache (a batch read's claims
      when every one of them was). The surviving units are
      checked once each, in submission order. *)
end

module Default : module type of Make (Merkle_bptree)
