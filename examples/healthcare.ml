(* The paper's motivating healthcare scenario (section 1): patient records
   are kept for a lifetime, every diagnosis and coding migration appends a
   new version, and regulators must be able to verify both current and
   historical data. This example uses the typed schema layer, the SQL front
   end, historical snapshots, and per-version provenance from the journal.

     dune exec examples/healthcare.exe *)

open Spitz

let () =
  print_endline "== healthcare records on Spitz ==";
  let db = Db.open_db () in
  let env = Sql.env db in

  (* A patient-record table: one row per patient, coded diagnosis, free-text
     notes, and the coding standard in force when the row was written. *)
  let exec q =
    match Sql.exec env q with
    | Sql.Done msg -> Printf.printf "  %s\n" msg
    | Sql.Rows (header, rows) ->
      Printf.printf "  %s\n" (String.concat " | " header);
      List.iter
        (fun row ->
           Printf.printf "  %s\n"
             (String.concat " | " (List.map (fun (_, v) -> Json.to_string v) row)))
        rows
  in
  exec
    "CREATE TABLE patients (id TEXT PRIMARY KEY, diagnosis TEXT INDEXED, \
     coding TEXT, visits INT)";
  exec "INSERT INTO patients (id, diagnosis, coding, visits) VALUES ('p-001', '250.00', 'ICD-9-CM', 3)";
  exec "INSERT INTO patients (id, diagnosis, coding, visits) VALUES ('p-002', '401.9', 'ICD-9-CM', 1)";
  exec "INSERT INTO patients (id, diagnosis, coding, visits) VALUES ('p-003', '250.00', 'ICD-9-CM', 7)";

  (* The ICD-10 migration: diagnoses are re-coded, but nothing is destroyed —
     each update appends a version, and the pre-migration state remains
     readable and verifiable. *)
  let migration_height = Db.L.height (Db.ledger db) - 1 in
  print_endline "-- ICD-9 to ICD-10 migration --";
  exec "INSERT INTO patients (id, diagnosis, coding, visits) VALUES ('p-001', 'E11.9', 'ICD-10', 3)";
  exec "INSERT INTO patients (id, diagnosis, coding, visits) VALUES ('p-003', 'E11.9', 'ICD-10', 7)";

  print_endline "-- current state --";
  exec "SELECT diagnosis, coding FROM patients";

  (* Analytic lookup: one scan of the diagnosis column. *)
  print_endline "-- all current type-2 diabetes patients (E11.9) --";
  exec "SELECT id FROM patients WHERE diagnosis = 'E11.9'";

  (* Historical snapshot: what did the record say before the migration? *)
  let patients = Sql.table env "patients" in
  (match Schema.get_row ~height:migration_height patients ~pk:"p-001" with
   | Some row ->
     Printf.printf "-- p-001 as of block %d (pre-migration): %s --\n" migration_height
       (String.concat ", " (List.map (fun (c, v) -> c ^ "=" ^ Json.to_string v) row))
   | None -> print_endline "no historical row?");

  (* Verified row read: every cell of the row carries a ledger proof. *)
  (match Schema.get_row_verified patients ~pk:"p-001" with
   | Some (row, verified) ->
     Printf.printf "-- verified current row p-001 (proofs ok: %b): %s --\n" verified
       (String.concat ", " (List.map (fun (c, v) -> c ^ "=" ^ Json.to_string v) row))
   | None -> print_endline "row missing?");

  (* Provenance: how did p-001's diagnosis evolve, and which statements did
     it? Each version comes from the key's history; the statement that wrote
     it is recorded in the journal's block at that height. *)
  print_endline "-- provenance of p-001.diagnosis --";
  let journal = Db.L.journal (Db.ledger db) in
  let key = Schema.ledger_key (Schema.spec patients) "diagnosis" "p-001" in
  List.iter
    (fun (height, value) ->
       let block = Spitz_ledger.Journal.block journal height in
       Printf.printf "  block %d: %s   [%s]\n" height value
         (String.concat "; " block.Spitz_ledger.Block.statements))
    (Db.history db key);

  (* The regulator's check: the whole journal audits clean, and the current
     digest provably extends the pre-migration digest. *)
  Printf.printf "journal audit: %b\n" (Db.audit db);
  print_endline "done."
