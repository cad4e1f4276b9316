(** Fault injection for the durability tests.

    Two facilities: {e crash points} — named markers compiled into the
    storage and checkpoint paths that raise {!Crash} when armed, so a test
    can kill the process "at" any point of a commit or checkpoint and then
    exercise recovery — and {e file corruption helpers} (truncate, bit
    flip) for simulating torn writes and bit rot on the log and snapshot
    files. Everything is a no-op unless a test arms it; production code
    pays one hashtable-is-empty check per crash point. *)

exception Crash of string
(** Raised by {!hit} at an armed crash point; carries the point's name. *)

val hit : string -> unit
(** Marker call placed at a crash site. Raises {!Crash name} if [name] is
    armed (decrementing multi-shot arms first); otherwise does nothing. *)

val hit_io : string -> unit
(** {!hit} for an I/O site: an armed point raises
    [Unix.Unix_error (EIO, name, "")] instead of {!Crash} — a failing disk
    the process survives, not a crash. *)

val arm : ?after:int -> string -> unit
(** Arm a crash point: the [(after+1)]-th {!hit} of [name] raises (default
    [after = 0]: the very next hit). *)

val reset : unit -> unit
(** Disarm every point. Tests should [reset] in a finalizer so a
    failed test cannot leave a mine behind for the next one. *)

val armed : string -> bool

(** {1 File corruption helpers} *)

val file_size : string -> int

val truncate_file : string -> int -> unit
(** Keep only the first [n] bytes of the file — a torn tail. *)

val flip_bit : string -> byte:int -> bit:int -> unit
(** Flip one bit in place — bit rot. *)
