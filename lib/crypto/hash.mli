(** SHA-256 digests with the domain-separated combiners used by every
    authenticated structure in the system. *)

type t
(** A 32-byte SHA-256 digest. *)

val size : int
(** Digest length in bytes (32). *)

val of_string : string -> t
(** Hash arbitrary data. *)

val of_strings : string list -> t
(** Hash the concatenation of the parts without materializing it. *)

val of_bytes_sub : Bytes.t -> pos:int -> len:int -> t
(** Hash [b.[pos .. pos+len-1]] in place — node identity computed straight
    from an encoder's buffer, with no intermediate string. The caller must
    not mutate the range during the call. *)

val null : t
(** The all-zero digest, used as a sentinel (e.g. previous-hash of a genesis
    block). *)

val is_null : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_raw : t -> string
(** The 32 raw bytes. *)

val of_raw : string -> t
(** Inverse of {!to_raw}. Raises [Invalid_argument] on wrong length. *)

val to_hex : t -> string
(** Lowercase hex, 64 characters. *)

val of_hex : string -> t
(** Inverse of {!to_hex}; upper- and lowercase digits are accepted. Raises
    [Invalid_argument] unless the input is exactly 64 characters of
    [[0-9a-fA-F]]. *)

val hex_of_string : string -> string
(** Lowercase hex of arbitrary bytes; {!to_hex} is this on a digest. *)

val short_hex : t -> string
(** First 8 hex characters — for logs and display. *)

val leaf : string -> t
(** Domain-separated leaf hash (RFC 6962-style [0x00] prefix). *)

val leaf_bytes : Bytes.t -> pos:int -> len:int -> t
(** {!leaf} over a byte range, copy-free: identical digest to
    [leaf (Bytes.sub_string b pos len)]. *)

val node : t -> t -> t
(** Domain-separated interior-node hash ([0x01] prefix). *)

val node_list : t list -> t
(** Domain-separated hash of an n-ary node's children ([0x02] prefix). *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Table : Hashtbl.S with type key = t
