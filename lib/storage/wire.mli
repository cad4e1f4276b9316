(** Deterministic length-prefixed binary encoding for serialized nodes.

    Node identity throughout the system is the SHA-256 of these bytes, so the
    encoding must be canonical: same logical content, same bytes.

    Writers are {!Slice.Writer}s: the encoded bytes are consumable in place
    ({!digest}, {!view}) without the [Buffer.contents] copy the old writer
    paid per encode, and {!clear} lets hot paths (WAL framing, per-connection
    response encoding, serial entry hashing) reuse one buffer across
    operations. Readers are cursors over a {!Slice.t} window, so decoding a
    sub-range of a larger buffer requires no up-front copy and can never
    read past the window even when the underlying buffer continues. *)

open Spitz_crypto

type writer = Slice.Writer.w

val writer : ?size:int -> unit -> writer
val contents : writer -> string
val length : writer -> int

val clear : writer -> unit
(** Reset to empty retaining capacity — the scratch-reuse primitive. *)

val view : writer -> Slice.t
(** Zero-copy slice of the bytes written so far; valid until the writer is
    next mutated. *)

val digest : writer -> Hash.t
(** SHA-256 of the bytes written so far, computed in place — equals
    [Hash.of_string (contents w)] with no intermediate string. *)

val leaf_digest : writer -> Hash.t
(** [Hash.leaf] of the bytes written so far, equally copy-free. *)

val write_varint : writer -> int -> unit
val write_string : writer -> string -> unit
val write_hash : writer -> Hash.t -> unit
val write_byte : writer -> char -> unit
val write_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

val write_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit
(** Same bytes as {!write_list} of the same elements. *)

val write_hash_list : writer -> Hash.t list -> unit
(** Length-prefixed hash sequence — the wire shape of every Merkle proof. *)

val write_nested : writer -> (writer -> 'a -> unit) -> 'a -> unit
(** [write_nested w write item] appends what [write] appends for [item],
    length-prefixed: the bytes of [write_string w] of that encoding, built
    in place with no intermediate string. *)

type reader

exception Malformed of string
(** Raised by all [read_*] functions on truncated or invalid input. *)

val reader : string -> reader
val reader_of_slice : Slice.t -> reader
val at_end : reader -> bool

val remaining : reader -> int
(** Bytes left before the end of the window. *)

val read_varint : reader -> int
val read_string : reader -> string
val read_hash : reader -> Hash.t
val read_byte : reader -> char

val read_raw : reader -> int -> Slice.t
(** The next [len] bytes as a sub-slice, advancing the cursor. *)

val skip : reader -> int -> unit
(** Advance the cursor past [len] bytes without reading them; [Malformed]
    when fewer remain. *)

val read_count : reader -> int
(** A list's element count, as {!read_list} reads it: [Malformed] when it
    is larger than the bytes remaining. *)

val read_list : reader -> (reader -> 'a) -> 'a list
(** Rejects (with {!Malformed}) a claimed element count larger than the bytes
    remaining, so adversarial lengths cannot drive allocation. *)

val read_array : reader -> (reader -> 'a) -> 'a array
(** {!read_list} into an array, with the same bound on the claimed count. *)

val read_hash_list : reader -> Hash.t list

val read_nested : reader -> (reader -> 'a) -> 'a
(** Reads what {!write_nested} wrote: [read] runs over exactly the
    length-prefixed window and must consume all of it ({!Malformed}
    otherwise). Nothing is copied first; what [read] returns is its own. *)

val decode : string -> (reader -> 'a) -> string -> 'a
(** [decode name read data] runs [read] over all of [data], requiring full
    consumption, and funnels every exception adversarial input can provoke —
    [End_of_file], [Invalid_argument], [Failure], [Not_found] — into
    {!Malformed}. Every top-level decoder of untrusted bytes goes through
    this. *)

val decode_slice : string -> (reader -> 'a) -> Slice.t -> 'a
(** {!decode} over a slice window: same contract, same full-consumption
    check, without first copying the window out of its buffer. *)
