open Spitz

(* --- JSON --- *)

let test_json_roundtrip () =
  let cases =
    [
      "null"; "true"; "false"; "0"; "-17"; "3.5"; "\"hello\""; "\"\"";
      "[]"; "[1,2,3]"; "{}"; "{\"a\":1,\"b\":[true,null]}";
      "{\"nested\":{\"deep\":[{\"x\":\"y\"}]}}";
    ]
  in
  List.iter
    (fun src ->
       let v = Json.of_string src in
       Alcotest.(check string) src src (Json.to_string v))
    cases

let test_json_whitespace_and_escapes () =
  let v = Json.of_string "  { \"a\" : [ 1 , \"t\\\"wo\" ] }  " in
  Alcotest.(check string) "normalized" "{\"a\":[1,\"t\\\"wo\"]}" (Json.to_string v);
  let v2 = Json.of_string "\"line\\nbreak\\u0041\"" in
  Alcotest.(check (option string)) "escapes" (Some "line\nbreakA") (Json.to_str v2)

let test_json_errors () =
  List.iter
    (fun src ->
       match Json.of_string src with
       | exception Json.Parse_error _ -> ()
       | _ -> Alcotest.failf "expected parse error for %S" src)
    [ ""; "{"; "[1,"; "\"unterminated"; "truex"; "{\"a\"}"; "[1] trailing" ]

let test_json_indented () =
  let v = Json.of_string "{\"a\":[1,[],{}],\"b\":{\"c\":\"x\",\"d\":2.5},\"e\":null}" in
  Alcotest.(check string) "two-space layout"
    "{\n  \"a\": [\n    1,\n    [],\n    {}\n  ],\n  \"b\": {\n    \"c\": \"x\",\n    \"d\": 2.5\n  },\n  \"e\": null\n}"
    (Json.to_string_indented v);
  Alcotest.(check bool) "parses back" true (Json.of_string (Json.to_string_indented v) = v)

(* The bench writes the results file as [to_string_indented] plus a
   newline, so reading and re-writing the committed file with no new
   results changes no byte: a bench run's diff is only what it measured. *)
let test_results_file_rewrites_identically () =
  (* [dune runtest] runs in the test directory, [dune exec] at the root *)
  let path = if Sys.file_exists "../BENCH_results.json" then "../BENCH_results.json" else "BENCH_results.json" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let again = Json.to_string_indented (Json.of_string text) ^ "\n" in
  if again <> text then begin
    let a = String.split_on_char '\n' text and b = String.split_on_char '\n' again in
    let rec first i = function
      | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else Some (i, x, y)
      | x :: _, [] -> Some (i, x, "")
      | [], y :: _ -> Some (i, "", y)
      | [], [] -> None
    in
    match first 1 (a, b) with
    | Some (line, was, now) ->
      Alcotest.failf "BENCH_results.json line %d: %S re-written as %S" line was now
    | None -> Alcotest.fail "BENCH_results.json re-written differently"
  end

let test_json_accessors () =
  let v = Json.of_string "{\"n\":4,\"s\":\"x\",\"b\":true,\"l\":[1]}" in
  Alcotest.(check (option (float 0.001))) "num" (Some 4.0)
    (Option.bind (Json.member "n" v) Json.to_float);
  Alcotest.(check (option string)) "str" (Some "x") (Option.bind (Json.member "s" v) Json.to_str);
  Alcotest.(check (option bool)) "bool" (Some true) (Option.bind (Json.member "b" v) Json.to_bool);
  Alcotest.(check bool) "list" true (Option.bind (Json.member "l" v) Json.to_list <> None);
  Alcotest.(check bool) "missing" true (Json.member "zz" v = None)

(* --- schema --- *)

let spec =
  {
    Schema.table_name = "accounts";
    primary_key = "id";
    columns =
      [
        { Schema.col_name = "owner"; col_type = Schema.T_text; indexed = true };
        { Schema.col_name = "balance"; col_type = Schema.T_int; indexed = false };
      ];
  }

let test_schema_insert_get () =
  let db = Db.open_db () in
  let t = Schema.create db spec in
  let h = Schema.insert t ~pk:"acct-1" [ ("owner", Json.Str "alice"); ("balance", Json.Num 100.0) ] in
  Alcotest.(check bool) "height" true (h >= 0);
  (match Schema.get_row t ~pk:"acct-1" with
   | Some row ->
     Alcotest.(check (option string)) "owner" (Some "alice")
       (Option.bind (List.assoc_opt "owner" row) Json.to_str);
     Alcotest.(check (option (float 0.001))) "balance" (Some 100.0)
       (Option.bind (List.assoc_opt "balance" row) Json.to_float)
   | None -> Alcotest.fail "row missing");
  Alcotest.(check bool) "absent row" true (Schema.get_row t ~pk:"nope" = None)

let test_schema_type_checking () =
  let db = Db.open_db () in
  let t = Schema.create db spec in
  (match Schema.insert t ~pk:"a" [ ("balance", Json.Str "not a number") ] with
   | exception Schema.Schema_error _ -> ()
   | _ -> Alcotest.fail "type error expected");
  (match Schema.insert t ~pk:"a" [ ("no_such_col", Json.Num 1.0) ] with
   | exception Schema.Schema_error _ -> ()
   | _ -> Alcotest.fail "unknown column expected");
  (match Schema.insert t ~pk:"bad\x00pk" [ ("balance", Json.Num 1.0) ] with
   | exception Schema.Schema_error _ -> ()
   | _ -> Alcotest.fail "bad pk expected")

let test_schema_update_delete_history () =
  let db = Db.open_db () in
  let t = Schema.create db spec in
  let h1 = Schema.insert t ~pk:"a" [ ("owner", Json.Str "alice"); ("balance", Json.Num 10.0) ] in
  let _h2 = Schema.insert t ~pk:"a" [ ("balance", Json.Num 20.0) ] in
  (match Schema.get_row t ~pk:"a" with
   | Some row ->
     Alcotest.(check (option (float 0.001))) "updated balance" (Some 20.0)
       (Option.bind (List.assoc_opt "balance" row) Json.to_float);
     Alcotest.(check (option string)) "owner survives partial update" (Some "alice")
       (Option.bind (List.assoc_opt "owner" row) Json.to_str)
   | None -> Alcotest.fail "row missing");
  (* historical snapshot *)
  (match Schema.get_row ~height:h1 t ~pk:"a" with
   | Some row ->
     Alcotest.(check (option (float 0.001))) "balance at h1" (Some 10.0)
       (Option.bind (List.assoc_opt "balance" row) Json.to_float)
   | None -> Alcotest.fail "historical row missing");
  ignore (Schema.delete t ~pk:"a");
  Alcotest.(check bool) "deleted" true (Schema.get_row t ~pk:"a" = None)

let test_schema_verified_row () =
  let db = Db.open_db () in
  let t = Schema.create db spec in
  ignore (Schema.insert t ~pk:"a" [ ("owner", Json.Str "alice"); ("balance", Json.Num 1.0) ]);
  match Schema.get_row_verified t ~pk:"a" with
  | Some (row, verified) ->
    Alcotest.(check bool) "verified" true verified;
    Alcotest.(check int) "two cells" 2 (List.length row)
  | None -> Alcotest.fail "row missing"

let test_schema_find_by_value () =
  let fill db =
    let t = Schema.create db spec in
    ignore (Schema.insert t ~pk:"a" [ ("owner", Json.Str "alice"); ("balance", Json.Num 1.0) ]);
    ignore (Schema.insert t ~pk:"b" [ ("owner", Json.Str "bob"); ("balance", Json.Num 2.0) ]);
    ignore (Schema.insert t ~pk:"c" [ ("owner", Json.Str "alice"); ("balance", Json.Num 3.0) ]);
    Alcotest.(check (list string)) "indexed column" [ "a"; "c" ]
      (Schema.find_by_value t ~col:"owner" (Json.Str "alice"));
    (* an overwritten or deleted value no longer matches *)
    ignore (Schema.insert t ~pk:"a" [ ("owner", Json.Str "carol") ]);
    ignore (Schema.insert t ~pk:"d" [ ("owner", Json.Str "dave"); ("balance", Json.Num 4.0) ]);
    ignore (Schema.delete t ~pk:"d")
  in
  (* every lookup, asked of a live database and of its reopened copies *)
  let answers db =
    let t = Schema.create db spec in
    List.map
      (fun (col, v) -> Schema.find_by_value t ~col v)
      [ ("owner", Json.Str "alice"); ("owner", Json.Str "carol");
        ("owner", Json.Str "dave"); ("balance", Json.Num 2.0) ]
  in
  let expected = [ [ "c" ]; [ "a" ]; []; [ "b" ] ] in
  let db = Db.open_db () in
  fill db;
  Alcotest.(check (list (list string))) "live" expected (answers db);
  let dir = Filename.temp_file "spitz_query" ".dir" in
  Sys.remove dir;
  let d = Db.open_durable dir in
  fill (Db.durable_db d);
  Db.close_durable d;
  let d = Db.open_durable dir in
  Alcotest.(check (list (list string))) "after durable reopen" expected
    (answers (Db.durable_db d));
  Db.checkpoint d;
  Db.close_durable d;
  let d = Db.open_durable dir in
  Alcotest.(check (list (list string))) "after a checkpoint's reopen" expected
    (answers (Db.durable_db d));
  Db.close_durable d;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  rm_rf dir

(* --- SQL --- *)

let fresh_env () = Sql.env (Db.open_db ())

let exec env q = Sql.exec env q

let test_sql_create_insert_select () =
  let env = fresh_env () in
  (match exec env "CREATE TABLE t (id TEXT PRIMARY KEY, name TEXT, qty INT)" with
   | Sql.Done _ -> ()
   | _ -> Alcotest.fail "create failed");
  ignore (exec env "INSERT INTO t (id, name, qty) VALUES ('x1', 'widget', 5)");
  ignore (exec env "INSERT INTO t (id, name, qty) VALUES ('x2', 'gadget', 7)");
  (match exec env "SELECT * FROM t" with
   | Sql.Rows (_, rows) -> Alcotest.(check int) "two rows" 2 (List.length rows)
   | _ -> Alcotest.fail "select failed");
  (match exec env "SELECT name FROM t WHERE pk = 'x2'" with
   | Sql.Rows (_, [ row ]) ->
     Alcotest.(check (option string)) "projected" (Some "gadget")
       (Option.bind (List.assoc_opt "name" row) Json.to_str)
   | _ -> Alcotest.fail "point select failed");
  (match exec env "SELECT * FROM t WHERE pk BETWEEN 'x1' AND 'x1'" with
   | Sql.Rows (_, rows) -> Alcotest.(check int) "between" 1 (List.length rows)
   | _ -> Alcotest.fail "between failed")

let test_sql_where_col_eq () =
  let env = fresh_env () in
  ignore (exec env "CREATE TABLE t (id TEXT PRIMARY KEY, color TEXT INDEXED)");
  ignore (exec env "INSERT INTO t (id, color) VALUES ('a', 'red')");
  ignore (exec env "INSERT INTO t (id, color) VALUES ('b', 'blue')");
  ignore (exec env "INSERT INTO t (id, color) VALUES ('c', 'red')");
  match exec env "SELECT id FROM t WHERE color = 'red'" with
  | Sql.Rows (_, rows) -> Alcotest.(check int) "two red" 2 (List.length rows)
  | _ -> Alcotest.fail "where failed"

let test_sql_delete () =
  let env = fresh_env () in
  ignore (exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
  ignore (exec env "INSERT INTO t (id, v) VALUES ('a', 1)");
  ignore (exec env "DELETE FROM t WHERE pk = 'a'");
  match exec env "SELECT * FROM t" with
  | Sql.Rows (_, rows) -> Alcotest.(check int) "gone" 0 (List.length rows)
  | _ -> Alcotest.fail "select failed"

let test_sql_errors () =
  let env = fresh_env () in
  let expect_error q =
    match exec env q with
    | exception Sql.Sql_error _ -> ()
    | exception Schema.Schema_error _ -> ()
    | _ -> Alcotest.failf "expected error for %S" q
  in
  expect_error "SELECT * FROM missing";
  expect_error "CREATE TABLE bad (x INT)";
  expect_error "CREATE TABLE bad (x INT PRIMARY KEY)";
  expect_error "FROBNICATE THE DATABASE";
  expect_error "INSERT INTO missing (id) VALUES ('x')";
  ignore (exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
  expect_error "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)";
  expect_error "INSERT INTO t (id, v) VALUES ('x', 'not-an-int')";
  expect_error "INSERT INTO t (id) VALUES (42)"

let test_sql_quoted_strings () =
  let env = fresh_env () in
  ignore (exec env "CREATE TABLE t (id TEXT PRIMARY KEY, note TEXT)");
  ignore (exec env "INSERT INTO t (id, note) VALUES ('a', 'it''s quoted')");
  match exec env "SELECT note FROM t WHERE pk = 'a'" with
  | Sql.Rows (_, [ row ]) ->
    Alcotest.(check (option string)) "escaped quote" (Some "it's quoted")
      (Option.bind (List.assoc_opt "note" row) Json.to_str)
  | _ -> Alcotest.fail "select failed"

let test_sql_statements_recorded () =
  (* the ledger records executed statements for audit *)
  let db = Db.open_db () in
  let env = Sql.env db in
  ignore (Sql.exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
  ignore (Sql.exec env "INSERT INTO t (id, v) VALUES ('a', 1)");
  let journal = Db.L.journal (Db.ledger db) in
  let all_statements = ref [] in
  for h = 0 to Spitz_ledger.Journal.length journal - 1 do
    let b = Spitz_ledger.Journal.block journal h in
    all_statements := b.Spitz_ledger.Block.statements @ !all_statements
  done;
  Alcotest.(check bool) "create recorded" true
    (List.exists (fun s -> s = "CREATE TABLE t") !all_statements);
  Alcotest.(check bool) "upsert recorded" true
    (List.exists
       (fun s -> String.length s >= 6 && String.sub s 0 6 = "UPSERT")
       !all_statements)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json whitespace+escapes" `Quick test_json_whitespace_and_escapes;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "json indented layout" `Quick test_json_indented;
    Alcotest.test_case "results file re-writes byte-identically" `Quick
      test_results_file_rewrites_identically;
    Alcotest.test_case "schema insert/get" `Quick test_schema_insert_get;
    Alcotest.test_case "schema type checking" `Quick test_schema_type_checking;
    Alcotest.test_case "schema update/delete/history" `Quick test_schema_update_delete_history;
    Alcotest.test_case "schema verified row" `Quick test_schema_verified_row;
    Alcotest.test_case "schema find by value" `Quick test_schema_find_by_value;
    Alcotest.test_case "sql create/insert/select" `Quick test_sql_create_insert_select;
    Alcotest.test_case "sql where col =" `Quick test_sql_where_col_eq;
    Alcotest.test_case "sql delete" `Quick test_sql_delete;
    Alcotest.test_case "sql errors" `Quick test_sql_errors;
    Alcotest.test_case "sql quoted strings" `Quick test_sql_quoted_strings;
    Alcotest.test_case "sql statements recorded" `Quick test_sql_statements_recorded;
  ]
