open Spitz

(* Federated analytics, persistence and compaction. *)

(* --- federated analytics --- *)

let test_federated () =
  let mk name seed =
    let db = Db.open_db () in
    for i = 0 to 19 do
      ignore (Db.put db (Printf.sprintf "m/%s-%02d" name i) (string_of_int (seed + i)))
    done;
    Federated.participant ~name db
  in
  let parties = [ mk "a" 100; mk "b" 200 ] in
  let digests = List.map (fun p -> (p.Federated.name, Db.digest p.Federated.db)) parties in
  let r = Federated.count ~digests parties ~lo:"m/" ~hi:"m/\xff" in
  Alcotest.(check bool) "all verified" true r.Federated.all_verified;
  Alcotest.(check (option int)) "count" (Some 40) r.Federated.aggregate;
  let s =
    Federated.sum ~digests parties ~lo:"m/" ~hi:"m/\xff" ~of_value:float_of_string
  in
  let expected = float_of_int ((100 + 119) * 20 / 2 + (200 + 219) * 20 / 2) in
  (match s.Federated.aggregate with
   | Some total -> Alcotest.(check (float 0.01)) "sum" expected total
   | None -> Alcotest.fail "sum rejected");
  (* a party with a mismatched digest poisons the aggregate *)
  let bad_digests = ("b", Db.digest (Db.open_db ())) :: List.remove_assoc "b" digests in
  let r2 = Federated.count ~digests:bad_digests parties ~lo:"m/" ~hi:"m/\xff" in
  Alcotest.(check bool) "rejected" false r2.Federated.all_verified;
  Alcotest.(check (option int)) "no aggregate" None r2.Federated.aggregate

(* --- persistence --- *)

let temp_file () = Filename.temp_file "spitz_test" ".db"

let test_save_load_roundtrip () =
  let db = Db.open_db () in
  for i = 0 to 99 do
    ignore (Db.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i))
  done;
  ignore (Db.put db "k042" "updated");
  (* a KV key holding the schema layer's column separator *)
  ignore (Db.put db "a\x1fb" "x");
  Alcotest.(check (option string)) "separator key, live" (Some "x") (Db.get db "a\x1fb");
  let digest = Db.digest db in
  let path = temp_file () in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  (* identical digest: the restored ledger is the same ledger *)
  Alcotest.(check bool) "digest preserved" true
    (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
       (Db.digest db').Spitz_ledger.Journal.root);
  Alcotest.(check int) "size preserved" digest.Spitz_ledger.Journal.size
    (Db.digest db').Spitz_ledger.Journal.size;
  (* data and history replayed *)
  Alcotest.(check (option string)) "updated value" (Some "updated") (Db.get db' "k042");
  Alcotest.(check (option string)) "other value" (Some "v7") (Db.get db' "k007");
  Alcotest.(check (option string)) "separator key, reloaded" (Some "x") (Db.get db' "a\x1fb");
  Alcotest.(check int) "history" 2 (List.length (Db.history db' "k042"));
  Alcotest.(check bool) "audit after load" true (Db.audit db');
  (* proofs still work and interoperate with the old digest *)
  let value, proof = Db.get_verified db' "k007" in
  Alcotest.(check bool) "proof against pre-save digest" true
    (Db.verify_read ~digest ~key:"k007" ~value (Option.get proof));
  (* and the database keeps working after load *)
  ignore (Db.put db' "new-key" "new-value");
  Alcotest.(check (option string)) "write after load" (Some "new-value") (Db.get db' "new-key")

let test_save_load_with_schema () =
  let db = Db.open_db () in
  let env = Sql.env db in
  ignore (Sql.exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
  ignore (Sql.exec env "INSERT INTO t (id, v) VALUES ('a', 42)");
  let path = temp_file () in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  (* the catalog is ledger data: tables come back *)
  let env' = Sql.env_of_db db' in
  match Sql.exec env' "SELECT v FROM t WHERE pk = 'a'" with
  | Sql.Rows (_, [ row ]) ->
    Alcotest.(check (option (float 0.001))) "value survives" (Some 42.0)
      (Option.bind (List.assoc_opt "v" row) Json.to_float)
  | _ -> Alcotest.fail "table did not survive reload"

let test_load_rejects_garbage () =
  let path = temp_file () in
  let oc = open_out_bin path in
  output_string oc "NOT A DATABASE";
  close_out oc;
  (match Db.load path with
   | exception _ -> ()
   | _ -> Alcotest.fail "garbage accepted");
  Sys.remove path

let suite =
  [
    Alcotest.test_case "federated analytics" `Quick test_federated;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "save/load with schema" `Quick test_save_load_with_schema;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
  ]

(* --- compaction --- *)

let test_compact_reclaims_and_preserves () =
  let db = Db.open_db () in
  for i = 0 to 499 do
    ignore (Db.put db (Printf.sprintf "k%03d" (i mod 100)) (Printf.sprintf "v%d" i))
  done;
  let digest = Db.digest db in
  let deleted, reclaimed = Db.compact ~keep_instances:8 db in
  Alcotest.(check bool) "something reclaimed" true (deleted > 0 && reclaimed > 0);
  (* current state, proofs, history, and audit all survive *)
  Alcotest.(check (option string)) "current value" (Some "v499") (Db.get db "k099");
  Alcotest.(check int) "full history" 5 (List.length (Db.history db "k042"));
  Alcotest.(check bool) "audit" true (Db.audit db);
  let value, proof = Db.get_verified db "k010" in
  Alcotest.(check bool) "proofs still verify" true
    (Db.verify_read ~digest ~key:"k010" ~value (Option.get proof));
  (* the database keeps working after compaction *)
  ignore (Db.put db "post-compact" "x");
  Alcotest.(check (option string)) "write after compact" (Some "x") (Db.get db "post-compact")

let test_compact_then_save_load () =
  let db = Db.open_db () in
  for i = 0 to 199 do
    ignore (Db.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i))
  done;
  ignore (Db.compact ~keep_instances:4 db);
  let path = temp_file () in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  Alcotest.(check (option string)) "value survives" (Some "v7") (Db.get db' "k007");
  Alcotest.(check bool) "audit" true (Db.audit db');
  Alcotest.(check bool) "digest stable" true
    (Spitz_crypto.Hash.equal (Db.digest db).Spitz_ledger.Journal.root
       (Db.digest db').Spitz_ledger.Journal.root)

(* values larger than the chunking threshold go through blob descriptors *)
let test_large_values () =
  let db = Db.open_db () in
  let big = String.init 100_000 (fun i -> Char.chr (i * 31 mod 256)) in
  ignore (Db.put db "big" big);
  Alcotest.(check bool) "large value roundtrip" true (Db.get db "big" = Some big);
  let digest = Db.digest db in
  let value, proof = Db.get_verified db "big" in
  Alcotest.(check bool) "large value proof" true
    (Db.verify_read ~digest ~key:"big" ~value (Option.get proof));
  (* survives compaction and persistence *)
  ignore (Db.compact db);
  Alcotest.(check bool) "after compact" true (Db.get db "big" = Some big);
  let path = temp_file () in
  Db.save db path;
  let db' = Db.load path in
  Sys.remove path;
  Alcotest.(check bool) "after reload" true (Db.get db' "big" = Some big)

let suite =
  suite
  @ [
      Alcotest.test_case "compact reclaims+preserves" `Quick test_compact_reclaims_and_preserves;
      Alcotest.test_case "compact then save/load" `Quick test_compact_then_save_load;
      Alcotest.test_case "large values" `Quick test_large_values;
    ]
