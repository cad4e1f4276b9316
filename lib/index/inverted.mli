(** Inverted index from cell values to posting lists of universal keys.

    Values are strings, indexed in a radix tree (prefix compression). *)

type t

val create : unit -> t

val add : t -> string -> string -> unit
(** [add t value ukey] records that the cell addressed by [ukey] holds
    [value]. Idempotent. *)

val remove : t -> string -> string -> unit

val lookup : t -> string -> string list
(** Universal keys of all cells holding exactly [value], sorted. *)

val lookup_prefix : t -> prefix:string -> string list
(** Universal keys of cells whose value starts with [prefix]. *)
