(** Mutable in-memory B+-tree over string keys with linked leaves — the plain
    (non-authenticated) index used by the baseline's materialized views and
    the immutable KVS. *)

type 'a t

val create : unit -> 'a t

val cardinal : 'a t -> int

val insert : 'a t -> string -> 'a -> unit
(** Insert or overwrite. *)

val get : 'a t -> string -> 'a option

val mem : 'a t -> string -> bool

val remove : 'a t -> string -> unit
(** Delete without rebalancing (lookups remain correct on sparse leaves). *)

val range : 'a t -> lo:string -> hi:string -> (string * 'a) list
(** Entries with [lo <= key <= hi] in key order, via the leaf links. *)

val fold_range : 'a t -> lo:string -> hi:string -> (string -> 'a -> 'b -> 'b) -> 'b -> 'b

val iter : 'a t -> (string -> 'a -> unit) -> unit
(** All entries in key order. *)
