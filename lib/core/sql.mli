(** A small SQL front end over the schema layer. Supported statements:

    {v
    CREATE TABLE t (pk TEXT PRIMARY KEY, col TYPE [INDEXED], ...)
    INSERT INTO t (col, ...) VALUES (v, ...)
    SELECT col, ... | * FROM t [WHERE cond]
    DELETE FROM t WHERE pk = 'x'
    v}

    with [cond] one of [pk = 'x'], [pk BETWEEN 'a' AND 'b'], or
    [col = literal]. [INDEXED] is accepted and recorded in the catalog, but
    selects no lookup path: [col = literal] scans the column either way.
    Executed statements are recorded in the ledger blocks
    they commit; CREATE TABLE commits the table spec itself as catalog data,
    so tables survive a checkpoint and a reopen ({!Db.open_durable}). *)

exception Sql_error of string

type cond =
  | Pk_eq of string
  | Pk_between of string * string
  | Col_eq of string * Json.t
  | All

type statement =
  | Create of Schema.spec
  | Insert of { table : string; columns : string list; values : Json.t list }
  | Select of { table : string; projection : string list option; cond : cond }
  | Delete of { table : string; pk : string }

val parse : string -> statement
(** Raises {!Sql_error} on syntax errors. *)

type env

val env : Db.t -> env
(** A fresh catalog over the database. *)

val env_of_db : Db.t -> env
(** Rebuild the catalog from the ledger's recorded CREATE TABLE entries
    (reopening a database). *)

val table : env -> string -> Schema.t
(** Raises {!Sql_error} if the table does not exist. *)

type result =
  | Done of string
  | Rows of string list * (string * Json.t) list list
      (** header, then one association list per row (pk first) *)

val exec : env -> string -> result
(** Parse and execute one statement. Raises {!Sql_error} or
    {!Schema.Schema_error}. *)
