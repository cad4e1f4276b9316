(** SHA-256 (FIPS 180-4) on native compressors.

    The block compressor is C (sha256_stubs.c): the x86-64 SHA-NI
    instructions when CPUID reports them, a portable C loop otherwise (and
    on every other architecture). CPUID alone decides, once per process;
    there is no setting. Both compressors produce the same bytes, and the
    test suite checks each against the FIPS 180-4 known-answer vectors and
    against a pure-OCaml reference implementation kept in the test tree.

    The one-shot functions ([digest_string], [digest_sub], [digest_bytes])
    are a single call into C that allocates nothing but the 32-byte result;
    the streaming [ctx] serves multi-part inputs. *)

val implementation : string
(** The compressor this process selected: ["sha-ni"] or ["portable"].
    Read-only, for reports such as benchmark stamps. *)

type ctx
(** Streaming hash state. Not thread-safe; one context per stream. *)

val init : unit -> ctx
(** Fresh hash state. *)

val feed_string : ctx -> string -> unit
(** Absorb [s] into the state. *)

val feed_bytes : ctx -> Bytes.t -> int -> int -> unit
(** [feed_bytes ctx b off len] absorbs the slice [b.[off .. off+len-1]]. *)

val feed_sub : ctx -> string -> int -> int -> unit
(** [feed_sub ctx s off len] absorbs [s.[off .. off+len-1]] without copying
    it out first. Raises [Invalid_argument] when the range escapes [s]. *)

val finalize : ctx -> string
(** Produce the 32-byte raw digest. The context must not be reused. *)

val digest_string : string -> string
(** One-shot digest of a string; returns 32 raw bytes. *)

val digest_strings : string list -> string
(** One-shot digest of the concatenation of the parts, without building the
    concatenated string. *)

val digest_bytes : Bytes.t -> int -> int -> string
(** One-shot digest of [b.[off .. off+len-1]] with no intermediate string —
    node identity streams out of encoder buffers through this. Raises
    [Invalid_argument] when the range escapes [b]. *)

val digest_sub : string -> int -> int -> string
(** One-shot digest of a string range, equally copy-free. *)

(**/**)

module For_testing : sig
  val digest_portable : Bytes.t -> int -> int -> string
  (** [digest_bytes] forced onto the portable C compressor, so the test
      suite can check both compressors on a host that selects SHA-NI. Not
      a runtime switch: nothing outside the tests calls it. *)
end
