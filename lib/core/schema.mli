(** Typed tables over the virtual cell store: each column value of a row is
    one cell, and every row mutation is one {!Db.commit}. *)

type col_type = T_int | T_float | T_text | T_bool | T_json

type column = { col_name : string; col_type : col_type; indexed : bool }
(** [indexed] is the SQL [INDEXED] mark. It is kept in the catalog, whose
    committed bytes carry it, and selects no lookup path. *)

type spec = {
  table_name : string;
  primary_key : string; (** the column naming the row; always TEXT *)
  columns : column list; (** excludes the primary key *)
}

exception Schema_error of string

val spec_to_json : spec -> Json.t
val spec_of_json : Json.t -> spec
(** Catalog (de)serialization; raises {!Schema_error} on malformed input. *)

type t

val create : Db.t -> spec -> t
(** Validates the spec (distinct, well-formed column names). *)

val spec : t -> spec

val ledger_key : spec -> string -> string -> string
(** [ledger_key spec col pk]: the ledger key of one cell (exposed for
    provenance queries over schema data). *)

val insert : t -> pk:string -> (string * Json.t) list -> int
(** Insert or update a row (the supplied columns only); one ledger block.
    Returns the block height. Raises {!Schema_error} on type mismatches or
    unknown columns. *)

val delete : t -> pk:string -> int

val get_row : ?height:int -> t -> pk:string -> (string * Json.t) list option
(** Current row, or the row as of block [height]. *)

val get_row_verified : t -> pk:string -> ((string * Json.t) list * bool) option
(** The row plus the conjunction of its per-cell ledger proofs. *)

val select_range : t -> pk_lo:string -> pk_hi:string -> (string * (string * Json.t) list) list
(** All live rows with pk in range, as (pk, row). *)

val find_by_value : t -> col:string -> Json.t -> string list
(** Primary keys whose current [col] equals the value, in pk order: one
    {!Db.range} over the column. *)
