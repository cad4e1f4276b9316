(* A small SQL front end over the schema layer (paper section 5.1: "Spitz
   supports both SQL and a self-defined JSON schema"). Supported statements:

     CREATE TABLE t (pk TEXT PRIMARY KEY, col TYPE [INDEXED], ...)
     INSERT INTO t (col, ...) VALUES (v, ...)         -- first column is the pk
     SELECT col, ... | * FROM t [WHERE <cond>]
     DELETE FROM t WHERE pk = 'x'

   with <cond> one of: pk = 'x' | pk BETWEEN 'a' AND 'b' | col = literal.
   INDEXED is accepted and recorded in the table's catalog entry, but
   selects no lookup path: col = literal scans the column either way.
   Statements are recorded in the ledger blocks they commit, so an auditor
   can replay what was executed. *)

exception Sql_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

(* --- lexer --- *)

type token =
  | Ident of string (* bare word, uppercased keywords compare equal *)
  | String of string
  | Number of float
  | Punct of char

let tokenize src =
  let tokens = ref [] in
  let n = String.length src in
  let i = ref 0 in
  let is_ident_char c =
    match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' -> true | _ -> false
  in
  while !i < n do
    (match src.[!i] with
     | ' ' | '\t' | '\n' | '\r' -> incr i
     | '\'' ->
       let buf = Buffer.create 16 in
       incr i;
       let closed = ref false in
       while not !closed do
         if !i >= n then error "unterminated string literal";
         (match src.[!i] with
          | '\'' when !i + 1 < n && src.[!i + 1] = '\'' ->
            Buffer.add_char buf '\'';
            i := !i + 2
          | '\'' ->
            closed := true;
            incr i
          | c ->
            Buffer.add_char buf c;
            incr i)
       done;
       tokens := String (Buffer.contents buf) :: !tokens
     | '(' | ')' | ',' | '=' | '*' -> tokens := Punct src.[!i] :: !tokens; incr i
     | c when is_ident_char c ->
       let start = !i in
       while !i < n && is_ident_char src.[!i] do
         incr i
       done;
       let word = String.sub src start (!i - start) in
       (match float_of_string_opt word with
        | Some f when (match word.[0] with '0' .. '9' | '-' -> true | _ -> false) ->
          tokens := Number f :: !tokens
        | _ -> tokens := Ident word :: !tokens)
     | '-' when !i + 1 < n && (match src.[!i + 1] with '0' .. '9' -> true | _ -> false) ->
       let start = !i in
       incr i;
       while !i < n && is_ident_char src.[!i] do
         incr i
       done;
       (match float_of_string_opt (String.sub src start (!i - start)) with
        | Some f -> tokens := Number f :: !tokens
        | None -> error "bad number")
     | c -> error "unexpected character %C" c);
  done;
  List.rev !tokens

(* --- parser --- *)

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

let keyword_eq a b = String.uppercase_ascii a = b

let parse src =
  let tokens = ref (tokenize src) in
  let peek () = match !tokens with [] -> None | t :: _ -> Some t in
  let next () =
    match !tokens with
    | [] -> error "unexpected end of statement"
    | t :: rest ->
      tokens := rest;
      t
  in
  let ident () =
    match next () with Ident s -> s | _ -> error "expected identifier"
  in
  let keyword kw =
    match next () with
    | Ident s when keyword_eq s kw -> ()
    | _ -> error "expected %s" kw
  in
  let punct c =
    match next () with Punct c' when c = c' -> () | _ -> error "expected %C" c
  in
  let literal () =
    match next () with
    | String s -> Json.Str s
    | Number f -> Json.Num f
    | Ident s when keyword_eq s "TRUE" -> Json.Bool true
    | Ident s when keyword_eq s "FALSE" -> Json.Bool false
    | Ident s when keyword_eq s "NULL" -> Json.Null
    | _ -> error "expected literal"
  in
  let col_type () =
    match String.uppercase_ascii (ident ()) with
    | "INT" | "INTEGER" -> Schema.T_int
    | "FLOAT" | "REAL" | "DOUBLE" -> Schema.T_float
    | "TEXT" | "VARCHAR" | "STRING" -> Schema.T_text
    | "BOOL" | "BOOLEAN" -> Schema.T_bool
    | "JSON" -> Schema.T_json
    | ty -> error "unknown type %s" ty
  in
  let stmt =
    match next () with
    | Ident kw when keyword_eq kw "CREATE" ->
      keyword "TABLE";
      let table = ident () in
      punct '(';
      let primary = ref None in
      let columns = ref [] in
      let rec cols () =
        let name = ident () in
        let ty = col_type () in
        let rec modifiers indexed =
          match peek () with
          | Some (Ident s) when keyword_eq s "PRIMARY" ->
            keyword "PRIMARY";
            keyword "KEY";
            if ty <> Schema.T_text then error "primary key must be TEXT";
            if !primary <> None then error "duplicate primary key";
            primary := Some name;
            modifiers indexed
          | Some (Ident s) when keyword_eq s "INDEXED" ->
            keyword "INDEXED";
            modifiers true
          | _ -> indexed
        in
        let indexed = modifiers false in
        if !primary <> Some name then
          columns := { Schema.col_name = name; col_type = ty; indexed } :: !columns;
        match next () with
        | Punct ',' -> cols ()
        | Punct ')' -> ()
        | _ -> error "expected ',' or ')'"
      in
      cols ();
      let primary_key = match !primary with Some pk -> pk | None -> error "missing PRIMARY KEY" in
      Create { Schema.table_name = table; primary_key; columns = List.rev !columns }
    | Ident kw when keyword_eq kw "INSERT" ->
      keyword "INTO";
      let table = ident () in
      punct '(';
      let rec names acc =
        let n = ident () in
        match next () with
        | Punct ',' -> names (n :: acc)
        | Punct ')' -> List.rev (n :: acc)
        | _ -> error "expected ',' or ')'"
      in
      let columns = names [] in
      keyword "VALUES";
      punct '(';
      let rec values acc =
        let v = literal () in
        match next () with
        | Punct ',' -> values (v :: acc)
        | Punct ')' -> List.rev (v :: acc)
        | _ -> error "expected ',' or ')'"
      in
      let values = values [] in
      if List.length columns <> List.length values then error "column/value arity mismatch";
      Insert { table; columns; values }
    | Ident kw when keyword_eq kw "SELECT" ->
      let projection =
        match peek () with
        | Some (Punct '*') ->
          ignore (next ());
          None
        | _ ->
          let rec cols acc =
            let c = ident () in
            match peek () with
            | Some (Punct ',') ->
              ignore (next ());
              cols (c :: acc)
            | _ -> List.rev (c :: acc)
          in
          Some (cols [])
      in
      keyword "FROM";
      let table = ident () in
      let cond =
        match peek () with
        | Some (Ident s) when keyword_eq s "WHERE" ->
          keyword "WHERE";
          let col = ident () in
          (match next () with
           | Punct '=' ->
             let v = literal () in
             if col = "pk" then
               match v with
               | Json.Str s -> Pk_eq s
               | _ -> error "pk comparisons need string literals"
             else Col_eq (col, v)
           | Ident s when keyword_eq s "BETWEEN" ->
             let lo = literal () in
             keyword "AND";
             let hi = literal () in
             (match (col, lo, hi) with
              | "pk", Json.Str lo, Json.Str hi -> Pk_between (lo, hi)
              | _ -> error "BETWEEN is supported on pk with string bounds")
           | _ -> error "expected '=' or BETWEEN")
        | _ -> All
      in
      Select { table; projection; cond }
    | Ident kw when keyword_eq kw "DELETE" ->
      keyword "FROM";
      let table = ident () in
      keyword "WHERE";
      let col = ident () in
      punct '=';
      (match (col, literal ()) with
       | "pk", Json.Str pk -> Delete { table; pk }
       | _ -> error "DELETE needs WHERE pk = 'value'")
    | Ident kw -> error "unknown statement %s" kw
    | _ -> error "expected statement keyword"
  in
  if !tokens <> [] then error "trailing tokens";
  stmt

(* --- execution --- *)

type env = {
  db : Db.t;
  mutable tables : (string * Schema.t) list;
}

let env db = { db; tables = [] }

(* The catalog is itself ledger data: CREATE TABLE commits the table spec
   under a reserved key, so reopening a database recovers its tables (and an
   auditor can verify the schema history like any other data). The specs
   are read back with [Db.range], which answers from the ledger's head
   index: [Db] gives the catalog column no cells. *)
let catalog_key name = Db.catalog_column ^ "\x1f" ^ name

let record_catalog env spec =
  ignore
    (Db.commit env.db
       ~statements:[ Printf.sprintf "CREATE TABLE %s" spec.Schema.table_name ]
       [ Spitz_ledger.Ledger.Put
           (catalog_key spec.Schema.table_name, Json.to_string (Schema.spec_to_json spec)) ])

let env_of_db db =
  let e = env db in
  let entries = Db.range db ~lo:(catalog_key "") ~hi:(catalog_key "\xff") in
  e.tables <-
    List.map
      (fun (_, printed) ->
         let spec = Schema.spec_of_json (Json.of_string printed) in
         (spec.Schema.table_name, Schema.create db spec))
      entries;
  e

let table env name =
  match List.assoc_opt name env.tables with
  | Some t -> t
  | None -> error "no such table %s" name

type result =
  | Done of string
  | Rows of string list * (string * Json.t) list list
  (* column header, then per-row pk + projected cells *)

let project projection row =
  match projection with
  | None -> row
  | Some cols ->
    List.filter_map
      (fun c -> Option.map (fun v -> (c, v)) (List.assoc_opt c row))
      cols

let exec env src =
  match parse src with
  | Create spec ->
    if List.mem_assoc spec.Schema.table_name env.tables then
      error "table %s already exists" spec.Schema.table_name;
    let t = Schema.create env.db spec in
    record_catalog env spec;
    env.tables <- (spec.Schema.table_name, t) :: env.tables;
    Done (Printf.sprintf "created table %s" spec.Schema.table_name)
  | Insert { table = name; columns; values } ->
    let t = table env name in
    let row = List.combine columns values in
    let pk_col = (Schema.spec t).Schema.primary_key in
    (match List.assoc_opt pk_col row with
     | Some (Json.Str pk) ->
       let height = Schema.insert t ~pk (List.remove_assoc pk_col row) in
       Done (Printf.sprintf "inserted %s (block %d)" pk height)
     | _ -> error "INSERT must supply the primary key %s as a string" pk_col)
  | Select { table = name; projection; cond } ->
    let t = table env name in
    let rows =
      match cond with
      | Pk_eq pk ->
        (match Schema.get_row t ~pk with None -> [] | Some row -> [ (pk, row) ])
      | Pk_between (lo, hi) -> Schema.select_range t ~pk_lo:lo ~pk_hi:hi
      | All -> Schema.select_range t ~pk_lo:"" ~pk_hi:"\xff"
      | Col_eq (col, v) ->
        List.filter_map
          (fun pk -> Option.map (fun row -> (pk, row)) (Schema.get_row t ~pk))
          (Schema.find_by_value t ~col v)
    in
    let header =
      match projection with
      | None -> "pk" :: List.map (fun c -> c.Schema.col_name) (Schema.spec t).Schema.columns
      | Some cols -> "pk" :: cols
    in
    Rows (header, List.map (fun (pk, row) -> (pk, project projection row) |> fun (pk, cells) -> ("pk", Json.Str pk) :: cells) rows)
  | Delete { table = name; pk } ->
    let t = table env name in
    let height = Schema.delete t ~pk in
    Done (Printf.sprintf "deleted %s (block %d)" pk height)
