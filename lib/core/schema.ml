open Spitz_ledger

(* Typed tables over the virtual cell store. Each column value of a row is
   one cell (paper section 5: the system maps each cell to a universal key of
   column id, primary key, timestamp, and value hash), and every row mutation
   is one [Db.commit] covering all its cells: the ledger key
   [table.col\x1fpk] names the cell, so [Db] applies it to the right column.
   A column's [indexed] mark is kept in the catalog, which committed blocks
   carry, but selects no lookup path: [find_by_value] scans the column. *)

type col_type = T_int | T_float | T_text | T_bool | T_json

let type_name = function
  | T_int -> "INT"
  | T_float -> "FLOAT"
  | T_text -> "TEXT"
  | T_bool -> "BOOL"
  | T_json -> "JSON"

type column = { col_name : string; col_type : col_type; indexed : bool }

type spec = {
  table_name : string;
  primary_key : string; (* values of this column name the row; always TEXT *)
  columns : column list; (* excludes the primary key *)
}

exception Schema_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Schema_error s)) fmt

let validate_spec spec =
  if spec.table_name = "" then error "table name is empty";
  let names = spec.primary_key :: List.map (fun c -> c.col_name) spec.columns in
  let module SS = Set.Make (String) in
  if SS.cardinal (SS.of_list names) <> List.length names then
    error "table %s: duplicate column names" spec.table_name;
  List.iter
    (fun n ->
       if n = "" || String.contains n '\x00' || String.contains n '\x1f' then
         error "table %s: invalid column name %S" spec.table_name n)
    names

let col_type_to_json = function
  | T_int -> Json.Str "int"
  | T_float -> Json.Str "float"
  | T_text -> Json.Str "text"
  | T_bool -> Json.Str "bool"
  | T_json -> Json.Str "json"

let col_type_of_json = function
  | Json.Str "int" -> T_int
  | Json.Str "float" -> T_float
  | Json.Str "text" -> T_text
  | Json.Str "bool" -> T_bool
  | Json.Str "json" -> T_json
  | j -> error "bad column type %s" (Json.to_string j)

let spec_to_json spec =
  Json.Obj
    [
      ("name", Json.Str spec.table_name);
      ("primary_key", Json.Str spec.primary_key);
      ( "columns",
        Json.Arr
          (List.map
             (fun c ->
                Json.Obj
                  [
                    ("name", Json.Str c.col_name);
                    ("type", col_type_to_json c.col_type);
                    ("indexed", Json.Bool c.indexed);
                  ])
             spec.columns) );
    ]

let spec_of_json j =
  let str field =
    match Json.member field j with
    | Some (Json.Str s) -> s
    | _ -> error "catalog entry missing %S" field
  in
  let columns =
    match Json.member "columns" j with
    | Some (Json.Arr cols) ->
      List.map
        (fun c ->
           match
             (Json.member "name" c, Json.member "type" c, Json.member "indexed" c)
           with
           | Some (Json.Str col_name), Some ty, Some (Json.Bool indexed) ->
             { col_name; col_type = col_type_of_json ty; indexed }
           | _ -> error "bad catalog column")
        cols
    | _ -> error "catalog entry missing columns"
  in
  { table_name = str "name"; primary_key = str "primary_key"; columns }

type t = {
  db : Db.t;
  spec : spec;
}

(* Cells of a table live in per-column columns of the cell store; ledger keys
   are column-qualified so row cells are verifiable individually. *)
let column_id spec col = spec.table_name ^ "." ^ col

let ledger_key spec col pk = column_id spec col ^ "\x1f" ^ pk

let create db spec =
  validate_spec spec;
  { db; spec }

let spec t = t.spec

let type_matches ty (v : Json.t) =
  match (ty, v) with
  | T_int, Json.Num f -> Float.is_integer f
  | T_float, Json.Num _ -> true
  | T_text, Json.Str _ -> true
  | T_bool, Json.Bool _ -> true
  | T_json, _ -> true
  | _, Json.Null -> true
  | _ -> false

let check_row t row =
  List.iter
    (fun (col, value) ->
       match List.find_opt (fun c -> c.col_name = col) t.spec.columns with
       | None -> error "table %s has no column %S" t.spec.table_name col
       | Some c ->
         if not (type_matches c.col_type value) then
           error "table %s: column %S expects %s, got %s" t.spec.table_name col
             (type_name c.col_type) (Json.to_string value))
    row

(* Insert (or update) one row: one ledger transaction covering every supplied
   column cell. Returns the block height. *)
let insert t ~pk row =
  if pk = "" || String.contains pk '\x00' || String.contains pk '\x1f' then
    error "invalid primary key %S" pk;
  check_row t row;
  let writes =
    List.map (fun (col, value) -> Ledger.Put (ledger_key t.spec col pk, Json.to_string value)) row
  in
  let statement =
    Printf.sprintf "UPSERT %s pk=%s cols=[%s]" t.spec.table_name pk
      (String.concat "," (List.map fst row))
  in
  Db.commit t.db ~statements:[ statement ] writes

let delete t ~pk =
  let writes = List.map (fun c -> Ledger.Delete (ledger_key t.spec c.col_name pk)) t.spec.columns in
  let statement = Printf.sprintf "DELETE %s pk=%s" t.spec.table_name pk in
  Db.commit t.db ~statements:[ statement ] writes

(* Read a cell's committed JSON value ([delete]d cells read as absent). *)
let cell_value t ?height ~pk col =
  let key = ledger_key t.spec col pk in
  let printed =
    match height with
    | None -> Db.get t.db key
    | Some height -> Db.get_at t.db ~height key
  in
  Option.map Json.of_string printed

let get_row ?height t ~pk =
  match
    List.filter_map
      (fun c -> Option.map (fun v -> (c.col_name, v)) (cell_value t ?height ~pk c.col_name))
      t.spec.columns
  with
  | [] -> None
  | cells -> Some cells

(* Verified row read: the row's cells plus one ledger proof per cell, checked
   against the given digest. *)
let get_row_verified t ~pk =
  let digest = Db.digest t.db in
  let cells =
    List.filter_map
      (fun c ->
         let key = ledger_key t.spec c.col_name pk in
         let value, proof = Db.get_verified t.db key in
         match (value, proof) with
         | Some printed, Some proof -> Some (c.col_name, Json.of_string printed, proof)
         | _ -> None)
      t.spec.columns
  in
  if cells = [] then None
  else begin
    let ok =
      List.for_all
        (fun (col, v, proof) ->
           Db.verify_read ~digest ~key:(ledger_key t.spec col pk)
             ~value:(Some (Json.to_string v)) proof)
        cells
    in
    Some (List.map (fun (c, v, _) -> (c, v)) cells, ok)
  end

(* (pk, printed value) of the latest version of each live cell of [col]
   with pk in [pk_lo, pk_hi], in pk order. The column's ledger keys
   [column\x1fpk] sit together in the head index in pk order, so this is
   one [Db.range]: O(log n + k), no sort. *)
let column_scan t col ~pk_lo ~pk_hi =
  let prefix = column_id t.spec col ^ "\x1f" in
  let n = String.length prefix in
  List.map
    (fun (key, printed) -> (String.sub key n (String.length key - n), printed))
    (Db.range t.db ~lo:(prefix ^ pk_lo) ~hi:(prefix ^ pk_hi))

(* All rows with pk in [lo, hi]: the pks of the first column's range, each
   row read whole. *)
let select_range t ~pk_lo ~pk_hi =
  match t.spec.columns with
  | [] -> []
  | first :: _ ->
    List.filter_map
      (fun (pk, _) -> Option.map (fun row -> (pk, row)) (get_row t ~pk))
      (column_scan t first.col_name ~pk_lo ~pk_hi)

(* All pks whose current [col] equals [value]: one scan of the column. *)
let find_by_value t ~col value =
  if not (List.exists (fun c -> c.col_name = col) t.spec.columns) then
    error "table %s has no column %S" t.spec.table_name col;
  List.filter_map
    (fun (pk, printed) -> if Json.of_string printed = value then Some pk else None)
    (column_scan t col ~pk_lo:"" ~pk_hi:"\xff")
