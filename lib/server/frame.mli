(** Wire framing of the TCP protocol: every request and every response
    travels as one frame — an 8-byte header (4-byte little-endian payload
    length, then the 4-byte little-endian CRC-32 of the payload) followed by
    the payload bytes. The same length+CRC idiom as the write-ahead log, so
    a torn or corrupted frame is detected before any payload byte is
    interpreted.

    The framing layer is deliberately dumb: it neither inspects nor buffers
    beyond one frame, so a reader can never be made to allocate more than
    {!max_payload} bytes by a hostile length header. *)

val header_len : int
(** 8 bytes. *)

val max_payload : int
(** Hard ceiling on a frame's payload (16 MiB). A header claiming more is
    rejected before any allocation. *)

exception Closed
(** The peer closed the connection cleanly, at a frame boundary. *)

type scratch
(** Per-connection reusable buffers: the header scratch every read fills
    and one frame buffer that {!write_slices} assembles outgoing frames in
    and {!read_slice} reads payloads into. Not thread-safe — one scratch per
    connection-serving thread. *)

val scratch : unit -> scratch

val max_retained : int
(** 64 KiB: the most frame buffer a scratch keeps between frames. A larger
    frame, sent or received, goes through a one-off buffer. *)

val retained : scratch -> int
(** The frame buffer's size: at most {!max_retained}. *)

val write : Unix.file_descr -> string -> unit
(** Send one frame (header + payload), handling partial writes. Raises
    [Invalid_argument] if the payload exceeds {!max_payload}; propagates
    [Unix.Unix_error] on a broken connection. *)

val write_slices : ?scratch:scratch -> Unix.file_descr -> Spitz_storage.Slice.t list -> unit
(** Gather-write: send one frame whose payload is the concatenation of the
    slices, never materializing it as a string — the CRC streams across the
    slices in place and header plus payload leave in a {e single} [write]
    (one syscall, one packet under TCP_NODELAY, the same on-wire bytes as
    {!write}). With [?scratch] the assembly buffer is reused across calls;
    it overwrites what {!read_slice} last returned. *)

val read_slice : scratch -> Unix.file_descr -> Spitz_storage.Slice.t
(** Receive one frame's payload into the scratch's frame buffer (a one-off
    buffer above {!max_retained}). The slice is valid only until the next
    {!read_slice}, {!read} or {!write_slices} on the same scratch: decode
    what is kept out of it first.

    Raises {!Closed} on clean EOF at a frame boundary, [End_of_file] when
    the connection dies mid-frame (a torn frame), and
    {!Spitz_storage.Wire.Malformed} on an oversized length header or a CRC
    mismatch — after either of those the stream has lost framing and the
    connection must be dropped. *)

val read : ?scratch:scratch -> Unix.file_descr -> string
(** {!read_slice}'s payload as a string of its own (without [?scratch], read
    straight into a fresh buffer of the frame's length). Same exceptions. *)

val encode : string -> string
(** The exact bytes {!write} sends, for tests and fuzzers that need to
    corrupt frames before sending them. *)
