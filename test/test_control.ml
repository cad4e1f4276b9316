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

(* --- persistence: a checkpoint, a close and a reopen --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f] on a fresh database directory and its open handle. *)
let with_durable f =
  let dir = Filename.temp_file "spitz_test" ".dir" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
       let d = ref (Db.open_durable ~sync:Spitz_storage.Wal.Never dir) in
       Fun.protect ~finally:(fun () -> Db.close_durable !d) (fun () -> f dir d))

(* Checkpoint the handle, close it and open its directory again. *)
let reopen dir d =
  Db.checkpoint !d;
  Db.close_durable !d;
  d := Db.open_durable ~sync:Spitz_storage.Wal.Never dir;
  Db.durable_db !d

let test_save_load_roundtrip () =
  with_durable @@ fun dir d ->
  let db = Db.durable_db !d in
  for i = 0 to 99 do
    ignore (Db.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i))
  done;
  ignore (Db.put db "k042" "updated");
  (* a KV key holding the schema layer's column separator *)
  ignore (Db.put db "a\x1fb" "x");
  Alcotest.(check (option string)) "separator key, live" (Some "x") (Db.get db "a\x1fb");
  let digest = Db.digest db in
  let db' = reopen dir d in
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
  with_durable @@ fun dir d ->
  let env = Sql.env (Db.durable_db !d) in
  ignore (Sql.exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
  ignore (Sql.exec env "INSERT INTO t (id, v) VALUES ('a', 42)");
  let db' = reopen dir d in
  (* the catalog is ledger data: tables come back *)
  let env' = Sql.env_of_db db' in
  match Sql.exec env' "SELECT v FROM t WHERE pk = 'a'" with
  | Sql.Rows (_, [ row ]) ->
    Alcotest.(check (option (float 0.001))) "value survives" (Some 42.0)
      (Option.bind (List.assoc_opt "v" row) Json.to_float)
  | _ -> Alcotest.fail "table did not survive reload"

let test_load_rejects_garbage () =
  let dir = Filename.temp_file "spitz_test" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Out_channel.with_open_bin (Filename.concat dir "snapshot") (fun oc ->
      output_string oc "NOT A DATABASE");
  match Db.open_durable dir with
  | exception Db.Corrupt _ -> ()
  | d ->
    Db.close_durable d;
    Alcotest.fail "garbage accepted"

let suite =
  [
    Alcotest.test_case "federated analytics" `Quick test_federated;
    Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "save/load with schema" `Quick test_save_load_with_schema;
    Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
  ]

(* --- compaction: the retention window, and a checkpoint that writes only
   the head's index instance --- *)

let test_compact_reclaims_and_preserves () =
  with_durable @@ fun dir d ->
  let db = Db.durable_db !d in
  for i = 0 to 499 do
    ignore (Db.put db (Printf.sprintf "k%03d" (i mod 100)) (Printf.sprintf "v%d" i))
  done;
  let digest = Db.digest db in
  let objects = Spitz_storage.Object_store.object_count (Db.store db) in
  Alcotest.(check bool) "the window reclaimed nodes" true
    ((Db.retention_stats db).Db.reclaimed_nodes > 0);
  let db = reopen dir d in
  Alcotest.(check bool) "the reopen holds only the head's instance" true
    (Spitz_storage.Object_store.object_count (Db.store db) < objects);
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
  with_durable @@ fun dir d ->
  let db = Db.durable_db !d in
  for i = 0 to 199 do
    ignore (Db.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i))
  done;
  let compacted = reopen dir d in
  ignore (Db.put compacted "k200" "v200");
  let digest = Db.digest compacted in
  let db' = reopen dir d in
  Alcotest.(check (option string)) "value survives" (Some "v7") (Db.get db' "k007");
  Alcotest.(check (option string)) "and the later write" (Some "v200") (Db.get db' "k200");
  Alcotest.(check bool) "audit" true (Db.audit db');
  Alcotest.(check bool) "digest stable" true
    (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
       (Db.digest db').Spitz_ledger.Journal.root)

(* values larger than the chunking threshold go through blob descriptors *)
let test_large_values () =
  with_durable @@ fun dir d ->
  let db = Db.durable_db !d in
  let big = String.init 100_000 (fun i -> Char.chr (i * 31 mod 256)) in
  ignore (Db.put db "big" big);
  Alcotest.(check bool) "large value roundtrip" true (Db.get db "big" = Some big);
  let digest = Db.digest db in
  let value, proof = Db.get_verified db "big" in
  Alcotest.(check bool) "large value proof" true
    (Db.verify_read ~digest ~key:"big" ~value (Option.get proof));
  (* survives a checkpoint and a reopen *)
  let db' = reopen dir d in
  Alcotest.(check bool) "after reload" true (Db.get db' "big" = Some big)

let suite =
  suite
  @ [
      Alcotest.test_case "compact reclaims+preserves" `Quick test_compact_reclaims_and_preserves;
      Alcotest.test_case "compact then save/load" `Quick test_compact_then_save_load;
      Alcotest.test_case "large values" `Quick test_large_values;
    ]
