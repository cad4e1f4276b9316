(** Immutable byte views and an in-place-consumable writer — the shared
    buffer vocabulary of the storage → ledger → WAL → network spine.

    A slice is a [(bytes, off, len)] window taken without copying. Slices
    expose no mutation; whether the window is {e durably} immutable depends
    on the producer:

    - {!of_string} views an immutable string — always safe to retain.
    - {!Writer.view} views a writer's live buffer — valid only until the
      writer is next mutated ([add_*]/[clear] or a growth reallocation).
      Producers of such transient slices must consume them (hash, CRC,
      write, blit) before touching the writer again.

    All slicing operations are bounds-checked; the [unsafe_*] accessors
    exist for the hashing/checksumming/[write(2)] paths and promise only
    that the holder reads within the window. *)

type t

val empty : t

val of_string : string -> t
(** Zero-copy view of an immutable string. *)

val of_bytes : ?pos:int -> ?len:int -> Bytes.t -> t
(** View of [pos, pos+len) of a byte buffer (default: all of it). The caller
    must not mutate that window while the slice is live. Raises
    [Invalid_argument] when the window exceeds the buffer. *)

val length : t -> int
val is_empty : t -> bool

val get : t -> int -> char
(** Bounds-checked, slice-relative. *)

val sub : t -> pos:int -> len:int -> t
(** Sub-window, still zero-copy. Raises [Invalid_argument] when it would
    escape the slice. *)

val to_string : t -> string
(** The one copying operation — materialize the window. *)

val blit : t -> Bytes.t -> int -> unit
(** [blit t dst pos] copies the window into [dst] at [pos]. *)

val equal : t -> t -> bool

val unsafe_base : t -> Bytes.t
(** The underlying buffer; read only within [unsafe_off, unsafe_off+length). *)

val unsafe_off : t -> int

(** Growable byte accumulator whose contents are consumable in place:
    unlike [Stdlib.Buffer], the accumulated bytes are reachable via {!view}
    / {!unsafe_bytes} without a [contents] copy, so digests, CRCs, WAL
    batches, and network frames stream straight out of an encoder. *)
module Writer : sig
  type w

  val create : ?size:int -> unit -> w
  val length : w -> int

  val clear : w -> unit
  (** Reset to empty, retaining capacity — the reuse primitive behind the
      per-connection and per-log scratch buffers. *)

  val capacity : w -> int
  (** Bytes the buffer holds before it must grow. *)

  val clear_within : w -> int -> unit
  (** [clear_within w cap]: {!clear}, and a buffer grown past [cap] bytes
      is dropped for one of [cap] — a writer reused per message keeps at
      most [cap] bytes between messages, whatever its largest message. *)

  val add_char : w -> char -> unit
  val add_string : w -> string -> unit
  val add_substring : w -> string -> int -> int -> unit
  val add_bytes : w -> Bytes.t -> int -> int -> unit
  val add_slice : w -> t -> unit

  val contents : w -> string
  (** Copying materialization (the compatibility path). *)

  val view : w -> t
  (** Zero-copy slice of the current contents — valid only until the next
      [add_*]/[clear]. *)

  val unsafe_bytes : w -> Bytes.t
  (** The live buffer; bytes beyond {!length} are garbage, and any [add_*]
      may reallocate it. *)
end
