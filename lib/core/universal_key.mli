(** Universal keys of the virtual cell store: every cell version is
    addressed by (column id, primary key, timestamp, value hash). The
    encoding, whose lexicographic order is (column, pk, ts) order, names a
    version in the inverted index. *)

open Spitz_crypto

type t = {
  column : string;
  pk : string;
  ts : int;
  vhash : Hash.t;
}

val make : column:string -> pk:string -> ts:int -> vhash:Hash.t -> t
(** Raises [Invalid_argument] if [column] or [pk] contains NUL. *)

val encode : t -> string
(** Order-preserving canonical encoding. *)

val decode : string -> t option

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
