(** Minimal JSON for the self-defined schema interface. Printing is canonical,
    so printed values can be stored and hashed stably. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
(** Raises {!Parse_error} on invalid input. *)

val to_string : t -> string
(** Canonical, whitespace-free rendering; [of_string (to_string v)]
    reproduces [v] up to float formatting. *)

val to_string_indented : t -> string
(** The same value laid out for reading and diffing: one array element or
    object field per line, each level indented two spaces, empty arrays and
    objects as [[]] and [{}] — the layout of Python's
    [json.dump(v, f, indent=2)]. No trailing newline. *)

val member : string -> t -> t option
val to_float : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option
