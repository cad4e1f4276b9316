(* Command-line interface to a Spitz database directory.

     spitz init db
     spitz put db alice engineer
     spitz get db alice [--verify]
     spitz range db a z [--verify]
     spitz history db alice
     spitz sql db "CREATE TABLE ..." "INSERT ..." "SELECT ..."
     spitz digest db
     spitz audit db
     spitz compact db
     spitz stats db
     spitz serve db --port 7473

   The directory is the one [spitz serve] runs on: a snapshot, a
   write-ahead log and a lock file. Every open re-validates the hash
   chain. *)

open Cmdliner

(* Fold the log into the snapshot, if it holds any block the snapshot
   lacks. A failed checkpoint loses nothing (the log still holds every
   block), but the caller's exit status says so. *)
let checkpoint_log d =
  Spitz.Db.uncheckpointed_blocks d = 0
  ||
  match Spitz.Db.checkpoint d with
  | () -> true
  | exception e ->
    Printf.eprintf "error: checkpoint failed: %s\n%!" (Printexc.to_string e);
    false

(* A command's failure, with its exit status: [with_dir] still folds the
   log and closes the directory before it exits with it. *)
exception Failed of int

(* Every command on a directory, [serve] included: open it (taking its
   lock), run [f], fold what the log holds, close, and exit: 0, the status
   [f] failed with, or 1 if the checkpoint failed. *)
let with_dir ?sync dir f =
  if Sys.file_exists dir && not (Sys.is_directory dir) then begin
    Printf.eprintf
      "error: %s is a single-file database; databases are directories now.\n\
       Move it into one, then open the directory:\n  mkdir %s.d && mv %s %s.d/snapshot\n"
      dir dir dir dir;
    exit 1
  end;
  match Spitz.Db.open_durable ?sync dir with
  | exception Spitz.Db.Locked pid ->
    Printf.eprintf "error: %s is open in process %s\n" dir
      (Option.fold ~none:"(pid unknown)" ~some:string_of_int pid);
    exit 1
  | d ->
    let status = match f d with () -> 0 | exception Failed n -> n in
    let checkpointed = checkpoint_log d in
    Spitz.Db.close_durable d;
    exit (if checkpointed then status else 1)

(* [dir], if [spitz init] made it. *)
let existing dir =
  if not (Sys.file_exists dir) then begin
    Printf.eprintf "error: %s does not exist (run 'spitz init %s' first)\n" dir dir;
    exit 1
  end;
  dir

let with_db dir f = with_dir (existing dir) (fun d -> f (Spitz.Db.durable_db d))

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Database directory.")

let verify_flag =
  Arg.(value & flag & info [ "verify" ] ~doc:"Fetch and check an integrity proof.")

(* --- init --- *)

let init_cmd =
  let run path =
    if Sys.file_exists path then begin
      Printf.eprintf "error: %s already exists\n" path;
      exit 1
    end;
    with_dir path (fun _ -> Printf.printf "created empty database %s\n" path)
  in
  Cmd.v (Cmd.info "init" ~doc:"Create an empty database directory.")
    Term.(const run $ file_arg)

(* --- put --- *)

let put_cmd =
  let key = Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY" ~doc:"Key.") in
  let value = Arg.(required & pos 2 (some string) None & info [] ~docv:"VALUE" ~doc:"Value.") in
  let run path key value =
    with_db path @@ fun db -> Printf.printf "committed block %d\n" (Spitz.Db.put db key value)
  in
  Cmd.v (Cmd.info "put" ~doc:"Write a key (appends a new version).")
    Term.(const run $ file_arg $ key $ value)

(* --- get --- *)

let get_cmd =
  let key = Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY" ~doc:"Key.") in
  let run path key verify =
    with_db path @@ fun db ->
    if verify then begin
      let digest = Spitz.Db.digest db in
      let value, proof = Spitz.Db.get_verified db key in
      let ok =
        match proof with
        | Some proof -> Spitz.Db.verify_read ~digest ~key ~value proof
        | None -> value = None
      in
      (match value with
       | Some v -> Printf.printf "%s\n" v
       | None -> Printf.printf "(not found)\n");
      Printf.printf "proof: %s\n" (if ok then "VERIFIED" else "FAILED");
      if not ok then raise (Failed 2)
    end
    else begin
      match Spitz.Db.get db key with
      | Some v -> print_endline v
      | None ->
        Printf.eprintf "(not found)\n";
        raise (Failed 1)
    end
  in
  Cmd.v (Cmd.info "get" ~doc:"Read the latest version of a key.")
    Term.(const run $ file_arg $ key $ verify_flag)

(* --- range --- *)

let range_cmd =
  let lo = Arg.(required & pos 1 (some string) None & info [] ~docv:"LO" ~doc:"Lower bound.") in
  let hi = Arg.(required & pos 2 (some string) None & info [] ~docv:"HI" ~doc:"Upper bound.") in
  let run path lo hi verify =
    with_db path @@ fun db ->
    if verify then begin
      let digest = Spitz.Db.digest db in
      let entries, proof = Spitz.Db.range_verified db ~lo ~hi in
      let ok =
        match proof with
        | Some proof -> Spitz.Db.verify_range ~digest ~lo ~hi ~entries proof
        | None -> entries = []
      in
      List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) entries;
      Printf.printf "proof over %d rows: %s\n" (List.length entries)
        (if ok then "VERIFIED" else "FAILED");
      if not ok then raise (Failed 2)
    end
    else List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v) (Spitz.Db.range db ~lo ~hi)
  in
  Cmd.v (Cmd.info "range" ~doc:"Scan keys in [LO, HI].")
    Term.(const run $ file_arg $ lo $ hi $ verify_flag)

(* --- history --- *)

let history_cmd =
  let key = Arg.(required & pos 1 (some string) None & info [] ~docv:"KEY" ~doc:"Key.") in
  let run path key =
    with_db path @@ fun db ->
    match Spitz.Db.history db key with
    | [] ->
      Printf.eprintf "(no versions)\n";
      raise (Failed 1)
    | versions ->
      List.iter (fun (height, v) -> Printf.printf "block %-6d %s\n" height v) versions
  in
  Cmd.v (Cmd.info "history" ~doc:"All committed versions of a key.")
    Term.(const run $ file_arg $ key)

(* --- sql --- *)

let sql_cmd =
  let stmts =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"SQL" ~doc:"Statements to run.")
  in
  let run path stmts =
    with_db path @@ fun db ->
    let env = Spitz.Sql.env_of_db db in
    List.iter
      (fun stmt ->
         match Spitz.Sql.exec env stmt with
         | Spitz.Sql.Done msg -> print_endline msg
         | Spitz.Sql.Rows (header, rows) ->
           print_endline (String.concat "\t" header);
           List.iter
             (fun row ->
                print_endline
                  (String.concat "\t" (List.map (fun (_, v) -> Spitz.Json.to_string v) row)))
             rows
         | exception Spitz.Sql.Sql_error msg ->
           Printf.eprintf "sql error: %s\n" msg;
           raise (Failed 1)
         | exception Spitz.Schema.Schema_error msg ->
           Printf.eprintf "schema error: %s\n" msg;
           raise (Failed 1))
      stmts
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Run SQL statements against the database, in order. Each statement commits \
             on its own, so a later failure leaves earlier statements committed.")
    Term.(const run $ file_arg $ stmts)

(* --- digest --- *)

let digest_cmd =
  let run path =
    with_db path @@ fun db ->
    let d = Spitz.Db.digest db in
    Printf.printf "root  %s\nsize  %d blocks\n"
      (Spitz_crypto.Hash.to_hex d.Spitz_ledger.Journal.root)
      d.Spitz_ledger.Journal.size
  in
  Cmd.v
    (Cmd.info "digest" ~doc:"Print the database digest (what a verifying client pins).")
    Term.(const run $ file_arg)

(* --- audit --- *)

let audit_cmd =
  let run path =
    with_db path @@ fun db ->
    if Spitz.Db.audit db then print_endline "journal chain: INTACT"
    else begin
      print_endline "journal chain: BROKEN";
      raise (Failed 2)
    end
  in
  Cmd.v (Cmd.info "audit" ~doc:"Re-walk every hash link of the journal.")
    Term.(const run $ file_arg)

(* --- compact --- *)

let compact_cmd =
  let run path =
    with_dir (existing path) @@ fun d ->
    let folded = Spitz.Db.uncheckpointed_blocks d in
    if not (checkpoint_log d) then raise (Failed 1);
    let snapshot = Filename.concat path "snapshot" in
    Printf.printf "compacted: %d blocks folded, snapshot %d bytes\n" folded
      (if Sys.file_exists snapshot then (Unix.stat snapshot).Unix.st_size else 0)
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Fold the write-ahead log into a snapshot of the head's index instance, \
             every block and every value.")
    Term.(const run $ file_arg)

(* --- serve --- *)

let serve_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Durable database directory (created if missing).")
  in
  let port =
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let domains =
    Arg.(value & opt int 2 & info [ "domains" ] ~docv:"N" ~doc:"Accept domains.")
  in
  let sync =
    Arg.(value & opt string "always" & info [ "sync" ] ~docv:"POLICY"
           ~doc:"WAL sync policy: always, group, interval:N, or never.")
  in
  let run dir port domains sync =
    let sync_policy =
      match String.lowercase_ascii sync with
      | "always" -> Spitz_storage.Wal.Always
      | "group" -> Spitz_storage.Wal.Group { max_batch = 64; max_delay_us = 200 }
      | "never" -> Spitz_storage.Wal.Never
      | s when String.length s > 9 && String.sub s 0 9 = "interval:" ->
        (match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
         | Some n when n > 0 -> Spitz_storage.Wal.Interval n
         | _ -> Printf.eprintf "error: bad sync policy %S\n" s; exit 1)
      | s -> Printf.eprintf "error: bad sync policy %S\n" s; exit 1
    in
    (* [with_dir] folds the log into a snapshot before exiting, so the next
       start opens from it instead of re-running every logged batch *)
    with_dir ~sync:sync_policy dir @@ fun durable ->
    let config = { Spitz_server.Server.default_config with port; accept_domains = domains } in
    let server = Spitz_server.Server.start ~config (Spitz.Db.durable_db durable) in
    (* The harness (tests, CI smoke) learns the bound port from this line. *)
    Printf.printf "PORT=%d\n%!" (Spitz_server.Server.port server);
    (* SIGTERM and SIGINT wake the main thread through a self-pipe: the
       handler writes a byte, and the main thread blocks reading it. *)
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    Unix.set_nonblock wake_w;
    let handler =
      Sys.Signal_handle
        (fun _ -> try ignore (Unix.single_write_substring wake_w "x" 0 1) with Unix.Unix_error _ -> ())
    in
    Sys.set_signal Sys.sigterm handler;
    Sys.set_signal Sys.sigint handler;
    let rec wait () =
      match Unix.read wake_r (Bytes.create 1) 0 1 with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    Spitz_server.Server.stop server;
    let s = Spitz_server.Server.stats server in
    Printf.printf "served %d requests over %d connections (%d malformed rejected)\n"
      s.Spitz_server.Server.requests s.Spitz_server.Server.accepted
      s.Spitz_server.Server.malformed
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a durable database over TCP (loopback) until SIGTERM/SIGINT.")
    Term.(const run $ dir $ port $ domains $ sync)

(* --- client --- *)

let client_cmd =
  let port =
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"Server port on loopback.")
  in
  let op_args =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"OP"
           ~doc:"Operation: put K V | get K | get-verified K | range LO HI | digest.")
  in
  let run port op_args =
    let session = Spitz_server.Session.connect ~port () in
    Fun.protect ~finally:(fun () -> Spitz_server.Session.close session) @@ fun () ->
    match op_args with
    | [ "put"; k; v ] ->
      Printf.printf "committed block %d\n" (Spitz_server.Session.put session k v)
    | [ "get"; k ] -> (
      match Spitz_server.Session.get session k with
      | Some v -> print_endline v
      | None -> Printf.eprintf "(not found)\n"; exit 1)
    | [ "get-verified"; k ] -> (
      match Spitz_server.Session.get_verified session k with
      | Some v -> Printf.printf "%s\nproof: VERIFIED\n" v
      | None -> Printf.printf "(not found)\nproof: VERIFIED\n")
    | [ "range"; lo; hi ] ->
      List.iter (fun (k, v) -> Printf.printf "%s\t%s\n" k v)
        (Spitz_server.Session.range_verified session ~lo ~hi)
    | [ "digest" ] ->
      Spitz_server.Session.sync session;
      let d = Option.get (Spitz_server.Session.digest session) in
      Printf.printf "root  %s\nsize  %d blocks\n"
        (Spitz_crypto.Hash.to_hex d.Spitz_ledger.Journal.root)
        d.Spitz_ledger.Journal.size
    | op ->
      Printf.eprintf "error: unknown client operation %S\n" (String.concat " " op);
      exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Run one verified operation against a running server (session pins and \
             checks the digest).")
    Term.(const run $ port $ op_args)

(* --- stats --- *)

let stats_cmd =
  let run path =
    with_db path @@ fun db ->
    let stats = Spitz_storage.Object_store.stats (Spitz.Db.store db) in
    let d = Spitz.Db.digest db in
    Printf.printf "blocks           %d\n" d.Spitz_ledger.Journal.size;
    Printf.printf "cells            %d\n" (Spitz.Db.cell_count db);
    Printf.printf "objects          %d\n"
      (Spitz_storage.Object_store.object_count (Spitz.Db.store db));
    Printf.printf "physical bytes   %d\n" stats.Spitz_storage.Object_store.physical_bytes
  in
  Cmd.v (Cmd.info "stats" ~doc:"Storage statistics.") Term.(const run $ file_arg)

let () =
  let info =
    Cmd.info "spitz" ~version:"1.0.0"
      ~doc:"A verifiable database: immutable, tamper-evident, with integrity proofs."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ init_cmd; put_cmd; get_cmd; range_cmd; history_cmd; sql_cmd; digest_cmd;
            audit_cmd; compact_cmd; stats_cmd; serve_cmd; client_cmd ]))
