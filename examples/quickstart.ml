(* Quickstart: open a Spitz database, write, read with integrity proofs,
   and watch tampering get caught.

     dune exec examples/quickstart.exe *)

let () =
  print_endline "== Spitz quickstart ==";

  (* 1. Open a database. Everything is in-memory and content-addressed. *)
  let db = Spitz.Db.open_db () in

  (* 2. Write some data. Every put commits a ledger block. *)
  List.iter
    (fun (k, v) -> ignore (Spitz.Db.put db k v))
    [ ("alice", "engineer"); ("bob", "designer"); ("carol", "analyst") ];
  Printf.printf "wrote 3 records; ledger height = %d\n"
    (Spitz.Db.L.height (Spitz.Db.ledger db));

  (* 3. Plain reads answer from the cell store. *)
  Printf.printf "alice -> %s\n" (Option.get (Spitz.Db.get db "alice"));

  (* 4. A client pins the database digest — 32 bytes of trust. *)
  let digest = Spitz.Db.digest db in
  Printf.printf "digest = %s (journal of %d blocks)\n"
    (Spitz_crypto.Hash.short_hex digest.Spitz_ledger.Journal.root)
    digest.Spitz_ledger.Journal.size;

  (* 5. Verified reads return a proof; the client checks it against the
     digest with no trust in the server. *)
  let value, proof = Spitz.Db.get_verified db "bob" in
  let proof = Option.get proof in
  Printf.printf "verified read: bob -> %s, proof checks: %b\n"
    (Option.get value)
    (Spitz.Db.verify_read ~digest ~key:"bob" ~value proof);

  (* 6. A lying server is caught: same proof, different answer. *)
  Printf.printf "forged answer accepted? %b\n"
    (Spitz.Db.verify_read ~digest ~key:"bob" ~value:(Some "director") proof);

  (* 7. Range queries come with a single proof covering the whole result —
     omissions and fabrications both fail verification. *)
  let entries, rproof = Spitz.Db.range_verified db ~lo:"a" ~hi:"z" in
  Printf.printf "range [a..z]: %d rows, proof checks: %b\n" (List.length entries)
    (Spitz.Db.verify_range ~digest ~lo:"a" ~hi:"z" ~entries (Option.get rproof));
  Printf.printf "dropped row accepted? %b\n"
    (Spitz.Db.verify_range ~digest ~lo:"a" ~hi:"z" ~entries:(List.tl entries)
       (Option.get rproof));

  (* 8. History: updates never destroy old versions. *)
  ignore (Spitz.Db.put db "alice" "principal engineer");
  let history = Spitz.Db.history db "alice" in
  Printf.printf "alice history: %s\n"
    (String.concat " -> " (List.map (fun (h, v) -> Printf.sprintf "%S@%d" v h) history));

  (* 9. Digest advancement is itself verifiable: the server proves the new
     journal extends the one the client pinned. *)
  let digest' = Spitz.Db.digest db in
  let consistency = Spitz.Db.consistency db ~old_size:digest.Spitz_ledger.Journal.size in
  Printf.printf "append-only advancement verified: %b\n"
    (Spitz_ledger.Journal.verify_consistency ~old_digest:digest ~new_digest:digest' consistency);

  (* 10. Durability: a database in a directory logs every commit before
     acknowledging it. A checkpoint folds the log into a snapshot of every
     block and value and the newest index instance; reopening re-validates
     the hash chain. *)
  let dir = Filename.temp_file "spitz_quickstart" ".dir" in
  Sys.remove dir;
  let d = Spitz.Db.open_durable dir in
  let ddb = Spitz.Db.durable_db d in
  List.iter
    (fun (k, v) -> ignore (Spitz.Db.put ddb k v))
    [ ("alice", "engineer"); ("bob", "designer"); ("alice", "principal engineer") ];

  (* 11. Retention bounds the ever-growing store: the directory keeps the
     newest 64 index versions live and its snapshot only the newest; the
     journal and every value stay. *)
  for i = 0 to 199 do
    ignore (Spitz.Db.put ddb (Printf.sprintf "bulk-%03d" i) "x")
  done;
  Spitz.Db.checkpoint d;
  Spitz.Db.close_durable d;
  let d = Spitz.Db.open_durable dir in
  let db2 = Spitz.Db.durable_db d in
  Printf.printf "reopened from disk: alice -> %s, %d blocks, horizon %d, audit: %b\n"
    (Option.get (Spitz.Db.get db2 "alice"))
    (Spitz.Db.digest db2).Spitz_ledger.Journal.size (Spitz.Db.horizon db2) (Spitz.Db.audit db2);
  Spitz.Db.close_durable d;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  rm_rf dir;

  print_endline "done."
