(* The TCP layer under adversarial network conditions: torn and oversized
   frames, mid-frame disconnects, slowloris writers, process kills between
   acknowledgement and durability. The server must never crash, leak a
   connection slot, or let a malformed frame reach the database; the
   verifying session must detect rollbacks and repair lost tails by
   idempotent retry. *)

module Server = Spitz_server.Server
module Session = Spitz_server.Session
module Frame = Spitz_server.Frame
module Ipc = Spitz_nonintrusive.Ipc
module Db = Spitz.Db

let with_server ?config f =
  let db = Spitz.Db.open_db () in
  let server = Server.start ?config db in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f db server)

let with_session server f =
  let s = Session.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Session.close s) (fun () -> f s)

let raw_connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* Spin until [cond] holds — server-side accounting (slot release, malformed
   counters) settles asynchronously with the handler threads. *)
let eventually ?(timeout = 5.0) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* --- the happy path, as a baseline for the fault tests --- *)

let test_session_roundtrip () =
  with_server @@ fun db server ->
  with_session server @@ fun s ->
  let h0 = Session.put s "alice" "engineer" in
  Alcotest.(check int) "first block" 0 h0;
  let _ = Session.put_batch s [ ("bob", "artist"); ("carol", "chemist") ] in
  Alcotest.(check (option string)) "get" (Some "artist") (Session.get s "bob");
  Alcotest.(check (option string)) "verified get" (Some "engineer")
    (Session.get_verified s "alice");
  Alcotest.(check (list (pair string string)))
    "verified range"
    [ ("alice", "engineer"); ("bob", "artist"); ("carol", "chemist") ]
    (Session.range_verified s ~lo:"a" ~hi:"z");
  Alcotest.(check (list (option string)))
    "verified batch" [ Some "artist"; None; Some "chemist" ]
    (Session.get_batch_verified s [ "bob"; "nobody"; "carol" ]);
  let _ = Session.delete s "bob" in
  Alcotest.(check (option string)) "deleted" None (Session.get_verified s "bob");
  Alcotest.(check bool) "session pin = server digest" true
    (Session.digest s = Some (Db.digest db));
  Alcotest.(check int) "no verification failures" 0 (Session.failures s);
  let receipts = Session.receipts s ~height:h0 in
  Alcotest.(check bool) "receipt verifies under the pin" true
    (List.exists (Session.verify_receipt s) receipts);
  let stats = Server.stats server in
  Alcotest.(check bool) "requests counted" true (stats.Server.requests > 5);
  Alcotest.(check int) "nothing malformed" 0 stats.Server.malformed

(* A session that first synced against an empty server holds a size-0 pin.
   Its verified reads must sync again rather than answer "absent" at that
   pin while the server has committed since. *)
let test_empty_pin_resyncs () =
  with_server @@ fun db server ->
  with_session server @@ fun reader ->
  Session.sync reader;
  Alcotest.(check (option int)) "pinned at the empty journal" (Some (-1))
    (Session.pin_height reader);
  with_session server (fun writer ->
      ignore (Session.put_batch writer [ ("alice", "engineer"); ("bob", "artist") ]));
  Alcotest.(check (option string)) "verified get" (Some "engineer")
    (Session.get_verified reader "alice");
  Alcotest.(check (option int)) "pin moved to the head" (Some 0) (Session.pin_height reader);
  Alcotest.(check (list (pair string string))) "verified range"
    [ ("alice", "engineer"); ("bob", "artist") ]
    (Session.range_verified reader ~lo:"a" ~hi:"z");
  Alcotest.(check (list (option string))) "verified batch" [ Some "artist" ]
    (Session.get_batch_verified reader [ "bob" ]);
  Alcotest.(check bool) "pin = server digest" true (Session.digest reader = Some (Db.digest db));
  Alcotest.(check int) "no verification failures" 0 (Session.failures reader)

let test_pipelined_requests () =
  with_server @@ fun _db server ->
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* write the whole pipeline ahead, then drain the responses in order *)
  for i = 0 to 9 do
    Frame.write fd
      (Ipc.encode_request
         (Ipc.Apply
            {
              token = Printf.sprintf "pipe-%02d" i;
              puts = [ (Printf.sprintf "k%02d" i, string_of_int i) ];
              deletes = [];
            }))
  done;
  for i = 0 to 9 do
    match Ipc.decode_response (Frame.read fd) with
    | Ipc.Committed h -> Alcotest.(check int) "pipelined heights in order" i h
    | _ -> Alcotest.fail "unexpected response to pipelined Apply"
  done

(* --- fault injection --- *)

let test_mid_frame_disconnect () =
  with_server @@ fun _db server ->
  let fd = raw_connect server in
  (* a header promising 100 payload bytes, then 10 bytes, then death *)
  let frame = Frame.encode (String.make 100 'x') in
  let partial = String.sub frame 0 (Frame.header_len + 10) in
  ignore (Unix.write_substring fd partial 0 (String.length partial));
  Unix.close fd;
  Alcotest.(check bool) "torn frame counted, slot released" true
    (eventually (fun () ->
         let s = Server.stats server in
         s.Server.malformed >= 1 && s.Server.active = 0));
  (* the server is still fully alive *)
  with_session server @@ fun s ->
  let _ = Session.put s "after" "disconnect" in
  Alcotest.(check (option string)) "still serving" (Some "disconnect")
    (Session.get_verified s "after")

let test_slowloris_frames () =
  with_server @@ fun _db server ->
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a valid frame dribbled one byte at a time must still parse *)
  let frame =
    Frame.encode
      (Ipc.encode_request
         (Ipc.Apply { token = "slow"; puts = [ ("slow", "loris") ]; deletes = [] }))
  in
  String.iter
    (fun c ->
      ignore (Unix.write_substring fd (String.make 1 c) 0 1);
      Thread.delay 0.001)
    frame;
  (match Ipc.decode_response (Frame.read fd) with
   | Ipc.Committed _ -> ()
   | _ -> Alcotest.fail "slow frame not served");
  (* a concurrent client is not head-of-line blocked by the slow one *)
  with_session server @@ fun s ->
  Alcotest.(check (option string)) "other connection unaffected" (Some "loris")
    (Session.get s "slow")

let test_oversized_length_header () =
  with_server @@ fun _db server ->
  let fd = raw_connect server in
  let head = Bytes.create Frame.header_len in
  Bytes.set_int32_le head 0 0x7FFFFF00l; (* far past max_payload *)
  Bytes.set_int32_le head 4 0l;
  ignore (Unix.write fd head 0 Frame.header_len);
  (* framing is unrecoverable: the server must drop the connection *)
  Alcotest.(check int) "connection dropped" 0
    (Unix.read fd (Bytes.create 1) 0 1);
  Unix.close fd;
  Alcotest.(check bool) "oversized header counted, slot released" true
    (eventually (fun () ->
         let s = Server.stats server in
         s.Server.malformed >= 1 && s.Server.active = 0));
  with_session server @@ fun s ->
  let _ = Session.put s "still" "alive" in
  ()

let test_crc_mismatch_drops_connection () =
  with_server @@ fun _db server ->
  let fd = raw_connect server in
  let frame = Bytes.of_string (Frame.encode (Ipc.encode_request (Ipc.Get "k"))) in
  (* corrupt one payload byte so the CRC no longer matches *)
  Bytes.set frame (Frame.header_len + 1) '\xff';
  ignore (Unix.write fd frame 0 (Bytes.length frame));
  Alcotest.(check int) "connection dropped on CRC mismatch" 0
    (Unix.read fd (Bytes.create 1) 0 1);
  Unix.close fd;
  Alcotest.(check bool) "CRC mismatch counted" true
    (eventually (fun () -> (Server.stats server).Server.malformed >= 1))

let test_malformed_payload_keeps_connection () =
  with_server @@ fun _db server ->
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* a well-framed frame whose payload the codec rejects: Error, not a drop *)
  Frame.write fd "\xfegarbage";
  (match Ipc.decode_response (Frame.read fd) with
   | Ipc.Error _ -> ()
   | _ -> Alcotest.fail "garbage payload must yield an Error response");
  (* same connection still serves valid requests *)
  Frame.write fd
    (Ipc.encode_request (Ipc.Apply { token = "t"; puts = [ ("k", "v") ]; deletes = [] }));
  (match Ipc.decode_response (Frame.read fd) with
   | Ipc.Committed _ -> ()
   | _ -> Alcotest.fail "connection must survive a rejected payload");
  Alcotest.(check bool) "malformed payload counted" true
    ((Server.stats server).Server.malformed >= 1)

(* The retired blind-write and live-proof verbs, framed exactly as the old
   codec wrote them. [Apply] is the only write the server takes: each old
   tag is a malformed payload — an [Error], counted, no commit — and the
   connection goes on serving. *)
let retired_frames =
  let frame tag fields =
    let w = Spitz_storage.Wire.writer () in
    Spitz_storage.Wire.write_byte w tag;
    fields w;
    (tag, Spitz_storage.Wire.contents w)
  in
  let str s w = Spitz_storage.Wire.write_string w s in
  [
    frame 'P' (fun w -> str "put" w; str "v" w);
    frame 'D' (str "alive");
    frame 'C' (fun w ->
        Spitz_storage.Wire.write_list w (fun w (k, v) -> str k w; str v w) [ ("commit", "v") ]);
    frame 'r' (str "alive");
    frame 'p' (str "alive");
    frame 'q' (fun w -> str "a" w; str "z" w);
  ]

let test_retired_verbs_rejected () =
  with_server @@ fun db server ->
  ignore (Db.put db "alive" "yes");
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  List.iteri
    (fun i (tag, payload) ->
      let what = Printf.sprintf "tag %C" tag in
      let before = Db.digest db in
      let malformed = (Server.stats server).Server.malformed in
      Frame.write fd payload;
      (match Ipc.decode_response (Frame.read fd) with
       | Ipc.Error _ -> ()
       | _ -> Alcotest.fail (what ^ ": a retired verb must get an Error"));
      Alcotest.(check bool) (what ^ ": digest unmoved") true (Db.digest db = before);
      Alcotest.(check int) (what ^ ": counted malformed") (malformed + 1)
        (Server.stats server).Server.malformed;
      Frame.write fd
        (Ipc.encode_request
           (Ipc.Apply
              { token = Printf.sprintf "after-%d" i; puts = [ ("after", what) ]; deletes = [] }));
      match Ipc.decode_response (Frame.read fd) with
      | Ipc.Committed h -> Alcotest.(check int) (what ^ ": then Apply commits") before.size h
      | _ -> Alcotest.fail (what ^ ": the connection must then serve an Apply"))
    retired_frames;
  Alcotest.(check (option string)) "nothing retracted" (Some "yes") (Db.get db "alive")

(* Unverified and verified reads answer from the same head snapshot, so
   they agree on every ledger key: plain keys, a schema cell key
   ([table.col\x1fpk]) and a SQL catalog entry. *)
let test_range_agreement () =
  with_server @@ fun db server ->
  let env = Spitz.Sql.env db in
  ignore (Spitz.Sql.exec env "CREATE TABLE t (id TEXT PRIMARY KEY, c TEXT)");
  ignore (Spitz.Sql.exec env "INSERT INTO t (id, c) VALUES ('pk', 'cell')");
  ignore (Db.put db "a" "1");
  ignore (Db.put db "z" "3");
  let lo = "" and hi = "\xff" in
  let entries = Db.range db ~lo ~hi in
  let keys = List.map fst entries in
  Alcotest.(check bool) "plain, schema and catalog keys all present" true
    (List.mem "a" keys && List.mem "z" keys
     && List.exists (fun k -> String.contains k '\x1f' && k.[0] <> '_') keys
     && List.exists (fun k -> String.starts_with ~prefix:Db.catalog_column k) keys);
  Alcotest.(check (list (pair string string))) "Db.range = Db.range_verified"
    (fst (Db.range_verified db ~lo ~hi)) entries;
  with_session server @@ fun s ->
  Session.sync s;
  let verified = Session.range_verified s ~lo ~hi in
  Alcotest.(check bool) "session pinned at the head" true
    (Session.digest s = Some (Db.digest db));
  Alcotest.(check (list (pair string string))) "Session.range = Session.range_verified"
    verified (Session.range s ~lo ~hi);
  Alcotest.(check (list (pair string string))) "and both match the database" entries verified

let test_graceful_shutdown () =
  let db = Spitz.Db.open_db () in
  let server = Server.start db in
  let sessions =
    List.init 4 (fun _ -> Session.connect ~port:(Server.port server) ())
  in
  List.iteri (fun i s -> ignore (Session.put s (Printf.sprintf "g%d" i) "v")) sessions;
  Server.stop server;
  let stats = Server.stats server in
  Alcotest.(check int) "no live connections after stop" 0 stats.Server.active;
  Alcotest.(check int) "all four sessions were accepted" 4 stats.Server.accepted;
  (* stop is idempotent, and the port no longer accepts *)
  Server.stop server;
  (match raw_connect server with
   | fd -> Unix.close fd; Alcotest.fail "listener must be closed after stop"
   | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  List.iter Session.close sessions;
  Alcotest.(check int) "writes before shutdown all landed" 4
    (Db.digest db).Spitz_ledger.Journal.size

let test_backpressure_cap () =
  let config = { Server.default_config with max_connections = 2 } in
  with_server ~config @@ fun _db server ->
  (* two live connections fill the cap; a third still completes because it
     waits in the backlog until a slot frees — nothing is refused or lost *)
  let s1 = Session.connect ~port:(Server.port server) () in
  let s2 = Session.connect ~port:(Server.port server) () in
  ignore (Session.put s1 "a" "1");
  ignore (Session.put s2 "b" "2");
  Alcotest.(check bool) "cap reached" true
    (eventually (fun () -> (Server.stats server).Server.active = 2));
  let third = Thread.create (fun () ->
      let s3 = Session.connect ~port:(Server.port server) () in
      let r = Session.get s3 "a" in
      Session.close s3;
      r) ()
  in
  Thread.delay 0.2;
  Session.close s1;
  (match Thread.join third with () -> ());
  Session.close s2;
  Alcotest.(check bool) "no slot leaked" true
    (eventually (fun () -> (Server.stats server).Server.active <= 1))

(* --- idempotent retry and fork detection --- *)

let test_idempotent_apply () =
  with_server @@ fun db server ->
  with_session server @@ fun s ->
  let h = Session.apply s ~token:"tok-1" ~puts:[ ("k", "v1") ] ~deletes:[] in
  let size1 = (Db.digest db).Spitz_ledger.Journal.size in
  (* same token again: same height, no new block *)
  Alcotest.(check int) "duplicate apply returns original height" h
    (Session.apply s ~token:"tok-1" ~puts:[ ("k", "v1") ] ~deletes:[]);
  Alcotest.(check int) "no duplicate commit" size1
    (Db.digest db).Spitz_ledger.Journal.size;
  (* and across a dropped connection — the session reconnects transparently *)
  Session.close s;
  Alcotest.(check int) "retry after reconnect is idempotent" h
    (Session.apply s ~token:"tok-1" ~puts:[ ("k", "v1") ] ~deletes:[]);
  Alcotest.(check int) "still no duplicate commit" size1
    (Db.digest db).Spitz_ledger.Journal.size

let test_rollback_detected () =
  let db_a = Spitz.Db.open_db () in
  let server_a = Server.start db_a in
  let port = Server.port server_a in
  let s = Session.connect ~port () in
  ignore (Session.put s "k1" "v1");
  ignore (Session.put s "k2" "v2");
  ignore (Session.put s "k3" "v3");
  Server.stop server_a;
  Session.close s;
  (* an impostor (or rolled-back restore) takes over the same port with a
     same-length but different history *)
  let db_b = Spitz.Db.open_db () in
  ignore (Db.put db_b "k1" "forged");
  ignore (Db.put db_b "k2" "forged");
  ignore (Db.put db_b "k3" "forged");
  let server_b = Server.start ~config:{ Server.default_config with port } db_b in
  Fun.protect ~finally:(fun () -> Server.stop server_b) @@ fun () ->
  (match Session.sync s with
   | () -> Alcotest.fail "session must reject a rolled-back digest"
   | exception Session.Verification_failed _ -> ());
  Alcotest.(check bool) "failure recorded" true (Session.failures s > 0);
  Session.close s

(* --- process-level kill tests over the durable CLI server --- *)

(* Resolve relative to the test binary, so the path holds under both
   `dune runtest` and `dune exec` regardless of cwd. *)
let cli_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/spitz_cli.exe"

let temp_dir () =
  let path = Filename.temp_file "spitz_srv" ".dir" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Launch [spitz serve] as a child process and parse the PORT= line. *)
let start_cli_server ?(port = 0) ~sync dir =
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli_exe
      [| cli_exe; "serve"; dir; "--port"; string_of_int port; "--sync"; sync |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let buf = Buffer.create 64 in
  let byte = Bytes.create 1 in
  let rec read_line () =
    match Unix.read out_r byte 0 1 with
    | 0 -> Alcotest.fail "serve child died before printing PORT="
    | _ ->
      if Bytes.get byte 0 = '\n' then Buffer.contents buf
      else begin
        Buffer.add_char buf (Bytes.get byte 0);
        read_line ()
      end
  in
  let line = read_line () in
  Unix.close out_r;
  if String.length line > 5 && String.sub line 0 5 = "PORT=" then
    match int_of_string_opt (String.sub line 5 (String.length line - 5)) with
    | Some port -> (pid, port)
    | None -> Alcotest.fail ("unexpected serve output: " ^ line)
  else Alcotest.fail ("unexpected serve output: " ^ line)

let kill_cli_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let wal_dir dir = Filename.concat dir "wal"

let last_wal_segment dir =
  Sys.readdir (wal_dir dir) |> Array.to_list
  |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "wal.")
  |> List.sort compare |> List.rev
  |> function
  | last :: _ -> Filename.concat (wal_dir dir) last
  | [] -> Alcotest.fail "no wal segments"

let tokens = List.init 8 (fun i -> Printf.sprintf "kill-%d" i)
let key_of i = Printf.sprintf "pk%02d" i
let value_of i = Printf.sprintf "pv%02d" i

let apply_all s =
  List.mapi
    (fun i token -> Session.apply s ~token ~puts:[ (key_of i, value_of i) ] ~deletes:[])
    tokens

(* SIGKILL between reply and nothing-left-to-do: with --sync always every
   acknowledged commit is on disk before the ack, so a hard kill loses
   nothing — the restarted server still extends the session's pin, the token
   table is rebuilt from the journal, and every key reads back verified. *)
let test_kill_durable_acks_survive () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, port = start_cli_server ~sync:"always" dir in
  let s = Session.connect ~port () in
  let heights = apply_all s in
  kill_cli_server pid;
  let pid2, port2 = start_cli_server ~sync:"always" dir in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid2 Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid2))
  @@ fun () ->
  (* the old session carries its pin to the restarted server: consistency
     must prove the restart lost nothing *)
  let s2 = Session.connect ~port:port2 () in
  (* hand the old pin over by replaying the tokens first: same heights back *)
  Alcotest.(check (list int)) "token table rebuilt from the journal" heights
    (apply_all s2);
  List.iteri
    (fun i _ ->
      Alcotest.(check (option string)) "acked write survived the kill"
        (Some (value_of i))
        (Session.get_verified s2 (key_of i)))
    tokens;
  Alcotest.(check int) "no verification failures" 0 (Session.failures s2);
  Session.close s2;
  Session.close s

(* An anchor is a digest plus a consistency proof from the client's pin to
   it. The journal's Merkle tree grows inside a commit before the head
   digest is published, so a proof built beside two digest reads can cover
   one block more than both of them name, and an honest server fails its
   client's check. One domain commits 16-key batches while a session syncs
   as fast as it can: every anchor must verify. *)
let test_anchor_under_commits () =
  with_server @@ fun db server ->
  with_session server @@ fun s ->
  ignore (Db.put db "seed" "0");
  let stop = Atomic.make false in
  let committer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          ignore
            (Db.put_batch db
               (List.init 16 (fun j ->
                    (Printf.sprintf "k%05d" (((!i * 16) + j) mod 4096), string_of_int !i))));
          incr i
        done)
  in
  let syncs = ref 0 in
  let deadline = Unix.gettimeofday () +. 1.5 in
  let outcome =
    match
      while Unix.gettimeofday () < deadline do
        Session.sync s;
        incr syncs
      done
    with
    | () -> None
    | exception Session.Verification_failed msg -> Some msg
  in
  Atomic.set stop true;
  Domain.join committer;
  (match outcome with
   | None -> ()
   | Some msg -> Alcotest.failf "anchor %d of an honest server failed: %s" (!syncs + 1) msg);
  Alcotest.(check bool) "anchors raced commits" true ((Option.get (Session.digest s)).size > 2)

(* A server reopened from a durable checkpoint keeps only the index
   instances from the checkpoint's head block on. A session whose pin is
   older gets [Below_horizon] for every verified read; it re-anchors once
   and reads at the new pin, which verifies like any other. *)
let test_session_reanchors_below_horizon () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d = Db.open_durable dir in
  let server = Server.start (Db.durable_db d) in
  let port = Server.port server in
  let s = Session.connect ~port () in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  ignore (Session.put s "a" "1");
  ignore (Session.put_batch s [ ("b", "2"); ("c", "3") ]);
  Alcotest.(check (option int)) "pinned at block 1" (Some 1) (Session.pin_height s);
  (* another client moves the head on; this session's pin stays at 1 *)
  with_session server (fun other ->
      ignore (Session.put other "a" "4");
      ignore (Session.put other "d" "5"));
  Server.stop server;
  Db.checkpoint d;
  Db.close_durable d;
  let d = Db.open_durable dir in
  Fun.protect ~finally:(fun () -> Db.close_durable d) @@ fun () ->
  let db = Db.durable_db d in
  Alcotest.(check int) "horizon at the checkpoint's head" 3 (Db.horizon db);
  (match Db.snapshot ~height:1 db with
   | exception Db.Below_horizon { height = 1; horizon = 3 } -> ()
   | _ -> Alcotest.fail "a pin below the horizon must raise Below_horizon");
  let server = Server.start ~config:{ Server.default_config with port } db in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  Alcotest.(check (option string)) "read re-anchored to the head" (Some "4")
    (Session.get_verified s "a");
  Alcotest.(check (option int)) "pin moved past the horizon" (Some 3) (Session.pin_height s);
  Alcotest.(check (list (pair string string)))
    "range at the new pin"
    [ ("a", "4"); ("b", "2"); ("c", "3"); ("d", "5") ]
    (Session.range_verified s ~lo:"a" ~hi:"z");
  Alcotest.(check (list (option string)))
    "batch at the new pin" [ Some "2"; None ]
    (Session.get_batch_verified s [ "b"; "zz" ]);
  Alcotest.(check int) "no verification failures" 0 (Session.failures s)

let stop_cli_server pid =
  Unix.kill pid Sys.sigterm;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> code
  | _ -> Alcotest.fail "serve did not exit normally on SIGTERM"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A graceful stop folds the log into a snapshot, so the restart opens from
   it: the active segment is left holding only its header, and a stop with
   nothing new to fold writes no second snapshot. *)
let test_sigterm_checkpoints () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, port = start_cli_server ~sync:"group" dir in
  let s = Session.connect ~port () in
  let heights = apply_all s in
  Session.close s;
  Alcotest.(check int) "clean exit" 0 (stop_cli_server pid);
  let snapshot = Filename.concat dir "snapshot" in
  Alcotest.(check bool) "snapshot written" true (Sys.file_exists snapshot);
  Alcotest.(check string) "log folded into it" Spitz_storage.Wal.segment_header
    (read_file (last_wal_segment dir));
  let before = read_file snapshot and inode = (Unix.stat snapshot).Unix.st_ino in
  let pid2, port2 = start_cli_server ~sync:"group" dir in
  let s2 = Session.connect ~port:port2 () in
  Alcotest.(check (list int)) "token table rebuilt from the snapshot" heights (apply_all s2);
  List.iteri
    (fun i _ ->
      Alcotest.(check (option string)) "write read back" (Some (value_of i))
        (Session.get_verified s2 (key_of i)))
    tokens;
  Session.close s2;
  Alcotest.(check int) "clean exit again" 0 (stop_cli_server pid2);
  (* a checkpoint renames a fresh file over the snapshot, so one that wrote
     the same bytes would still show up as a new inode *)
  Alcotest.(check int) "nothing new, no second snapshot" inode (Unix.stat snapshot).Unix.st_ino;
  Alcotest.(check bool) "snapshot bytes kept" true (read_file snapshot = before)

(* SIGKILL with --sync never, then a deliberately truncated log tail: the
   acks were never durable, so writes are lost — and the client's blind
   token replay must repair every one of them, exactly once each, while a
   stale session detects the rollback as a failed consistency proof. *)
let test_kill_lost_tail_repaired_by_retry () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, port = start_cli_server ~sync:"never" dir in
  let stale = Session.connect ~port () in
  ignore (apply_all stale);
  Session.sync stale;
  let pinned = Option.get (Session.digest stale) in
  kill_cli_server pid;
  (* lose the undurable tail: cut the final segment roughly in half *)
  let seg = last_wal_segment dir in
  let size = (Unix.stat seg).Unix.st_size in
  Spitz_storage.Fault.truncate_file seg (size / 2);
  (* restart on the same port so the stale session's reconnect finds it *)
  let pid2, port2 = start_cli_server ~port ~sync:"never" dir in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid2 Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid2))
  @@ fun () ->
  (* a fresh client blindly replays all its tokens; survivors are recognized,
     lost ones recommitted *)
  let s2 = Session.connect ~port:port2 () in
  ignore (apply_all s2);
  List.iteri
    (fun i _ ->
      Alcotest.(check (option string)) "write repaired by idempotent retry"
        (Some (value_of i))
        (Session.get_verified s2 (key_of i)))
    tokens;
  (* replaying a third time commits nothing new *)
  Session.sync s2;
  let before = (Option.get (Session.digest s2)).Spitz_ledger.Journal.size in
  ignore (apply_all s2);
  Session.sync s2;
  Alcotest.(check int) "token replay is idempotent" before
    (Option.get (Session.digest s2)).Spitz_ledger.Journal.size;
  (* block contents are deterministic (logical timestamps, same tokens, same
     order), so repairing the lost tail by replay reproduces the serial
     history bit for bit: the digest equals the pre-kill pin exactly — and
     the stale session's consistency check therefore accepts the repaired
     server *)
  Alcotest.(check bool) "retry reproduces the serial digest" true
    (Session.digest s2 = Some pinned);
  Session.sync stale;
  Alcotest.(check bool) "stale pin carries over to the repaired server" true
    (Session.digest stale = Some pinned);
  Session.close s2;
  Session.close stale


(* --- the file commands: one durable directory, one process at a time --- *)

(* Run the CLI to completion: its exit status and what it printed, standard
   output and error together. *)
let run_cli args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process cli_exe (Array.of_list (cli_exe :: args)) Unix.stdin out_w out_w in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "spitz %s died on a signal" (String.concat " " args)

let mentions = Test_durability.mentions

(* The block count [spitz stats] prints. *)
let stats_blocks dir =
  match run_cli [ "stats"; dir ] with
  | 0, out ->
    List.find_map (fun l -> Scanf.sscanf_opt l "blocks %d" Fun.id) (String.split_on_char '\n' out)
    |> Option.get
  | _, out -> Alcotest.fail ("spitz stats failed: " ^ out)

(* A running [spitz serve] holds its directory: another process's open is
   refused and names the server's pid, in process as [Db.Locked] and from
   the CLI as an error. The lock goes when the server is killed, and a
   clean close releases it too. *)
let test_directory_lock () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let pid, _ = start_cli_server ~sync:"group" dir in
  let served = ref true in
  Fun.protect ~finally:(fun () -> if !served then kill_cli_server pid) (fun () ->
      (match Db.open_durable dir with
       | exception Db.Locked holder ->
         Alcotest.(check (option int)) "Locked names the server" (Some pid) holder
       | d ->
         Db.close_durable d;
         Alcotest.fail "a served directory opened in a second process");
      let status, out = run_cli [ "put"; dir; "k"; "v" ] in
      Alcotest.(check bool) "spitz put refused" true (status <> 0);
      Alcotest.(check bool) (out ^ " names the server") true (mentions out (string_of_int pid));
      kill_cli_server pid;
      served := false);
  let d = Db.open_durable dir in
  Db.close_durable d;
  Alcotest.(check (pair int string)) "opens after the kill and a clean close"
    (0, "committed block 0\n") (run_cli [ "put"; dir; "k"; "v" ])

(* Two handles of one directory in one process share its lock: closing the
   first leaves the directory held, and another process is refused with
   this process's pid until the second is closed too. *)
let test_directory_lock_shared_in_process () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d1 = Db.open_durable dir in
  let d2 = Db.open_durable dir in
  Db.close_durable d1;
  Fun.protect ~finally:(fun () -> Db.close_durable d2) (fun () ->
      let status, out = run_cli [ "put"; dir; "k"; "v" ] in
      Alcotest.(check bool) "spitz put refused while a handle is open" true (status <> 0);
      Alcotest.(check bool) (out ^ " names this process") true
        (mentions out (string_of_int (Unix.getpid ()))));
  Alcotest.(check (pair int string)) "opens once both are closed" (0, "committed block 0\n")
    (run_cli [ "put"; dir; "k"; "v" ])

(* Each statement of [spitz sql] commits on its own: a failing statement
   leaves the ones before it committed, the ones after it unrun, and the
   call exits 1. *)
let test_cli_sql_commits_each_statement () =
  let parent = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf parent) @@ fun () ->
  let dir = Filename.concat parent "db" in
  Alcotest.(check int) "init" 0 (fst (run_cli [ "init"; dir ]));
  let status, out =
    run_cli
      [ "sql"; dir; "CREATE TABLE users (id TEXT PRIMARY KEY, name TEXT)";
        "INSERT INTO users VALUES ('u1', 'ann')" ]
  in
  Alcotest.(check int) "a bad second statement exits 1" 1 status;
  Alcotest.(check bool) "after the first was reported" true (mentions out "created table users");
  Alcotest.(check (pair int string)) "the table was committed" (0, "pk\tname\n")
    (run_cli [ "sql"; dir; "SELECT * FROM users" ]);
  Alcotest.(check int) "one block" 1 (stats_blocks dir);
  let status, out =
    run_cli
      [ "sql"; dir; "CREATE TABLE items (sku TEXT PRIMARY KEY, name TEXT)";
        "INSERT INTO items VALUES ('s1', 'widget')";
        "INSERT INTO items (sku, name) VALUES ('s2', 'gadget')" ]
  in
  Alcotest.(check int) "a bad middle statement exits 1" 1 status;
  Alcotest.(check bool) "the third never ran" false (mentions out "s2");
  Alcotest.(check int) "the first committed" 2 (stats_blocks dir);
  Alcotest.(check (pair int string)) "and nothing after it" (0, "pk\tname\n")
    (run_cli [ "sql"; dir; "SELECT * FROM items" ])

(* A single-file database an earlier release wrote ([spitz init], two puts,
   a CREATE TABLE and an INSERT) is a snapshot: the CLI refuses the file
   and names the way out, and moved into a directory it opens with its
   digest and takes new blocks on top of it. *)
let single_file_fixture = Test_durability.fixture "single_file/db.spitz"

let single_file_root = "29a7d5f4e90748d4f39f6ea2569456ddda5738f8eb4f303c4da8d04ce5943c9e"

let test_single_file_moves_into_a_directory () =
  let parent = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf parent) @@ fun () ->
  let file = Filename.concat parent "db.spitz" and dir = Filename.concat parent "db.spitz.d" in
  let bytes = In_channel.with_open_bin single_file_fixture In_channel.input_all in
  Out_channel.with_open_bin file (fun oc -> output_string oc bytes);
  let status, out = run_cli [ "stats"; file ] in
  Alcotest.(check int) "a file is refused" 1 status;
  Alcotest.(check bool) (out ^ " names the way out") true
    (mentions out (Printf.sprintf "mkdir %s && mv %s %s/snapshot" dir file dir));
  Alcotest.(check bool) "the file is untouched" true
    (In_channel.with_open_bin file In_channel.input_all = bytes);
  Unix.mkdir dir 0o755;
  Sys.rename file (Filename.concat dir "snapshot");
  Alcotest.(check (pair int string)) "spitz audit" (0, "journal chain: INTACT\n")
    (run_cli [ "audit"; dir ]);
  let d = Db.open_durable dir in
  let db = Db.durable_db d in
  let digest = Db.digest db in
  Alcotest.(check int) "blocks" 4 digest.Spitz_ledger.Journal.size;
  Alcotest.(check string) "digest" single_file_root
    (Spitz_crypto.Hash.to_hex digest.Spitz_ledger.Journal.root);
  Alcotest.(check bool) "audit" true (Db.audit db);
  Alcotest.(check (option string)) "a put" (Some "200") (Db.get db "bob");
  (match Spitz.Sql.exec (Spitz.Sql.env_of_db db) "SELECT name FROM items WHERE pk = 'sku-1'" with
   | Spitz.Sql.Rows (_, [ row ]) ->
     Alcotest.(check (option string)) "a row" (Some "\"widget\"")
       (Option.map Spitz.Json.to_string (List.assoc_opt "name" row))
   | _ -> Alcotest.fail "the table did not survive the move");
  ignore (Db.put db "carol" "300");
  Db.checkpoint d;
  Db.close_durable d;
  let d = Db.open_durable dir in
  Fun.protect ~finally:(fun () -> Db.close_durable d) @@ fun () ->
  let db = Db.durable_db d in
  let now = Db.digest db in
  Alcotest.(check int) "one block more" 5 now.Spitz_ledger.Journal.size;
  Alcotest.(check bool) "the file's digest is a prefix" true
    (Spitz_ledger.Journal.verify_consistency ~old_digest:digest ~new_digest:now
       (Db.consistency db ~old_size:digest.Spitz_ledger.Journal.size))

(* --- concurrent Apply: the token table does not serialize commits --- *)

(* A durable server under [Always]: each commit waits for its fsync, so
   Applies from different connections overlap in the durability wait. *)
let with_durable_server f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d = Db.open_durable ~sync:Spitz_storage.Wal.Always dir in
  let db = Db.durable_db d in
  let server = Server.start db in
  Fun.protect
    ~finally:(fun () ->
        Server.stop server;
        Db.close_durable d)
    (fun () -> f db server)

let in_threads n f =
  let results = Array.make n [] in
  let threads = List.init n (fun c -> Thread.create (fun () -> results.(c) <- f c) ()) in
  List.iter Thread.join threads;
  results

let blocks_with_statement db statement =
  let ledger = Db.ledger db in
  let journal = Db.L.journal ledger in
  List.filter
    (fun h ->
       List.mem statement (Spitz_ledger.Journal.block journal h).Spitz_ledger.Block.statements)
    (List.init (Db.L.height ledger) Fun.id)

let test_racing_token_commits_once () =
  with_durable_server @@ fun db server ->
  let tokens = List.init 24 (fun i -> Printf.sprintf "race-%02d" i) in
  (* both sessions send every token, in the same order, at the same time *)
  let heights =
    in_threads 2 (fun _ ->
        with_session server @@ fun s ->
        List.map
          (fun token -> Session.apply s ~token ~puts:[ (token, "v") ] ~deletes:[])
          tokens)
  in
  Alcotest.(check (list int)) "both sessions get the same heights" heights.(0) heights.(1);
  List.iter2
    (fun token h ->
       Alcotest.(check (list int))
         (token ^ " is in exactly one block, the acknowledged one")
         [ h ] (blocks_with_statement db ("tx:" ^ token)))
    tokens heights.(0);
  Alcotest.(check int) "one block per token" (List.length tokens) (Db.L.height (Db.ledger db))

let test_concurrent_applies_distinct_heights () =
  with_durable_server @@ fun db server ->
  let per = 16 in
  let key c i = Printf.sprintf "c%d-k%02d" c i and value c i = Printf.sprintf "c%d-v%02d" c i in
  let heights =
    in_threads 4 (fun c ->
        with_session server @@ fun s ->
        List.init per (fun i ->
            Session.apply s ~token:(Printf.sprintf "c%d-%02d" c i)
              ~puts:[ (key c i, value c i) ] ~deletes:[]))
  in
  let all = List.concat (Array.to_list heights) in
  Alcotest.(check int) "every Apply answered" (4 * per) (List.length all);
  Alcotest.(check int) "heights are distinct" (4 * per)
    (List.length (List.sort_uniq compare all));
  (* serial replay of the committed order reproduces the digest *)
  let journal = Db.L.journal (Db.ledger db) in
  let values = Hashtbl.create 64 in
  for c = 0 to 3 do
    for i = 0 to per - 1 do
      Hashtbl.replace values (key c i) (value c i)
    done
  done;
  let serial = Db.open_db () in
  for h = 0 to Db.L.height (Db.ledger db) - 1 do
    let block = Spitz_ledger.Journal.block journal h in
    ignore
      (Db.commit serial ~statements:block.Spitz_ledger.Block.statements
         (List.map
            (fun (e : Spitz_ledger.Block.entry) ->
               Spitz_ledger.Ledger.Put (e.key, Hashtbl.find values e.key))
            block.Spitz_ledger.Block.entries))
  done;
  Alcotest.(check bool) "digest = serial replay" true (Db.digest db = Db.digest serial)

(* --- read-modify-write: the conditional Apply --- *)

let incr v = string_of_int (1 + Option.fold ~none:0 ~some:int_of_string v)

(* Two sessions read the counter at the same pin, then each writes +1. B's
   whole update runs inside A's, between A's read and A's write, so the
   interleaving is fixed. With [Session.update], A's write conflicts, A
   reads again and the count ends at 2. With a verified read and a blind
   [Session.put], the same interleaving ends at 1: an update is lost. *)
let test_lost_update () =
  with_server @@ fun db server ->
  with_session server @@ fun a ->
  with_session server @@ fun b ->
  ignore (Session.put a "counter" "0");
  let pins = ref [] in
  let pinned s = pins := Session.pin_height s :: !pins in
  ignore
    (Session.update a "counter" (fun v ->
         if !pins = [] then begin
           pinned a;
           ignore (Session.update b "counter" (fun v -> pinned b; incr v))
         end;
         incr v));
  (match !pins with
   | [ pb; pa ] -> Alcotest.(check (option int)) "both read at the same pin" pa pb
   | _ -> Alcotest.fail "expected one read from each session");
  Alcotest.(check int) "A's first write conflicted" 1 (Session.conflicts a);
  Alcotest.(check int) "B's write did not" 0 (Session.conflicts b);
  Alcotest.(check (option string)) "conditional: both increments count" (Some "2")
    (Db.get db "counter");
  ignore (Session.put a "counter" "0");
  Session.sync a;
  Session.sync b;
  Alcotest.(check (option int)) "blind: the same pin" (Session.pin_height a) (Session.pin_height b);
  let va = Session.get_verified a "counter" in
  let vb = Session.get_verified b "counter" in
  ignore (Session.put b "counter" (incr vb));
  ignore (Session.put a "counter" (incr va));
  Alcotest.(check (option string)) "blind: one increment is lost" (Some "1") (Db.get db "counter")

(* On the wire: a conflicting [Apply_if] commits nothing and frees its
   token, so the same token with a fresh read commits; a retry of a
   committed token answers its height without looking at its reads again;
   a catalog key in a read set is an [Error], and frees the token too. *)
let test_apply_if_tokens () =
  with_server @@ fun db server ->
  let h0 = Db.put db "k" "0" in
  let h1 = Db.put db "k" "1" in
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let send req =
    Frame.write fd (Ipc.encode_request req);
    Ipc.decode_response (Frame.read fd)
  in
  let apply_if reads = Ipc.Apply_if { token = "rmw"; reads; puts = [ ("k", "2") ]; deletes = [] } in
  let before = Db.digest db in
  (match send (apply_if [ ("k", h0) ]) with
   | Ipc.Conflict { key; height } ->
     Alcotest.(check string) "conflicting key" "k" key;
     Alcotest.(check int) "the block that wrote it" h1 height
   | _ -> Alcotest.fail "a stale read must be answered Conflict");
  Alcotest.(check bool) "nothing committed" true (Db.digest db = before);
  let h =
    match send (apply_if [ ("k", h1) ]) with
    | Ipc.Committed h -> h
    | _ -> Alcotest.fail "the freed token must commit with a fresh read"
  in
  (match send (apply_if [ ("k", h0) ]) with
   | Ipc.Committed h' -> Alcotest.(check int) "a committed token answers its height" h h'
   | _ -> Alcotest.fail "a retried committed token must answer its height");
  Alcotest.(check (list int)) "the token is in one block" [ h ] (blocks_with_statement db "tx:rmw");
  let catalog = Ipc.Apply_if
      { token = "cat"; reads = [ (Db.catalog_column ^ "\x1ft", h) ]; puts = [ ("c", "1") ];
        deletes = [] }
  in
  (match send catalog with
   | Ipc.Error _ -> ()
   | _ -> Alcotest.fail "a catalog key in a read set must be an Error");
  match send (Ipc.Apply_if { token = "cat"; reads = []; puts = [ ("c", "1") ]; deletes = [] }) with
  | Ipc.Committed h' -> Alcotest.(check int) "then the token commits" (h + 1) h'
  | _ -> Alcotest.fail "a refused token must be free again"

(* A server that answers every batch read with its first value forged and
   the honest proof; anchors are honest. *)
let with_forging_server db f =
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port = match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let answer (req : Ipc.request) : (Db.L.read_proof, Db.L.batch_read_proof) Ipc.answer =
    match req with
    | Ipc.Anchor known ->
      let (d : Spitz_ledger.Journal.digest), consistency = Db.anchor db ~old_size:known in
      Ipc.AnchorResp { Ipc.root = d.root; size = d.size; consistency }
    | Ipc.GetBatch (height, keys) -> (
      match Db.Snapshot.get_batch_verified (Option.get (Db.snapshot ~height db)) keys with
      | _ :: rest, proof -> Ipc.BatchProof (Some "forged" :: rest, proof)
      | [], proof -> Ipc.BatchProof ([], proof))
    | _ -> Ipc.Error "not served here"
  in
  let serve () =
    let fd, _ = Unix.accept ~cloexec:true listen in
    let out = Spitz_storage.Wire.writer () in
    (try
       while true do
         let req = Ipc.decode_request (Frame.read fd) in
         Spitz_storage.Wire.clear out;
         Ipc.write_answer ~read:Db.L.write_read_proof ~batch:Db.L.write_batch_proof out
           (answer req);
         Frame.write fd (Spitz_storage.Wire.contents out)
       done
     with Frame.Closed | End_of_file | Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let server = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
        Thread.join server;
        Unix.close listen)
    (fun () -> f port)

(* A batch read is one check of the session's verifier, like a point or
   range read: it counts in [checked], and a forged batch in [failures]. *)
let test_batch_reads_counted () =
  with_server @@ fun db server ->
  ignore (Db.put_batch db [ ("a", "1"); ("b", "2") ]);
  (with_session server @@ fun s ->
   Session.sync s;
   Alcotest.(check (list (option string))) "values" [ Some "1"; Some "2"; None ]
     (Session.get_batch_verified s [ "a"; "b"; "c" ]);
   Alcotest.(check int) "one check" 1 (Session.checked s);
   Alcotest.(check int) "no failure" 0 (Session.failures s));
  with_forging_server db @@ fun port ->
  let s = Session.connect ~port () in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  Session.sync s;
  (match Session.get_batch_verified s [ "a"; "b" ] with
   | _ -> Alcotest.fail "a forged batch must not verify"
   | exception Session.Verification_failed _ -> ());
  Alcotest.(check int) "one check" 1 (Session.checked s);
  Alcotest.(check int) "one failure" 1 (Session.failures s)

let suite =
  [
    Alcotest.test_case "session roundtrip over loopback" `Quick test_session_roundtrip;
    Alcotest.test_case "empty pin syncs again for a verified read" `Quick test_empty_pin_resyncs;
    Alcotest.test_case "pipelined requests served in order" `Quick test_pipelined_requests;
    Alcotest.test_case "mid-frame disconnect" `Quick test_mid_frame_disconnect;
    Alcotest.test_case "slowloris byte-at-a-time frames" `Quick test_slowloris_frames;
    Alcotest.test_case "oversized length header" `Quick test_oversized_length_header;
    Alcotest.test_case "CRC mismatch drops the connection" `Quick
      test_crc_mismatch_drops_connection;
    Alcotest.test_case "malformed payload keeps the connection" `Quick
      test_malformed_payload_keeps_connection;
    Alcotest.test_case "retired verbs rejected, connection kept" `Quick
      test_retired_verbs_rejected;
    Alcotest.test_case "range agrees with range_verified" `Quick test_range_agreement;
    Alcotest.test_case "graceful shutdown drains and releases" `Quick
      test_graceful_shutdown;
    Alcotest.test_case "connection cap backpressure" `Quick test_backpressure_cap;
    Alcotest.test_case "idempotent apply across reconnects" `Quick test_idempotent_apply;
    Alcotest.test_case "racing Applies of one token commit once" `Quick
      test_racing_token_commits_once;
    Alcotest.test_case "concurrent Applies: distinct heights, serial digest" `Quick
      test_concurrent_applies_distinct_heights;
    Alcotest.test_case "rollback detected by session sync" `Quick test_rollback_detected;
    Alcotest.test_case "conditional Apply: no lost update, blind Apply loses one" `Quick
      test_lost_update;
    Alcotest.test_case "conditional Apply: a conflict frees its token" `Quick test_apply_if_tokens;
    Alcotest.test_case "batch reads count in the session verifier" `Quick
      test_batch_reads_counted;
    Alcotest.test_case "anchors verify while commits race" `Quick test_anchor_under_commits;
    Alcotest.test_case "session re-anchors below the horizon" `Quick
      test_session_reanchors_below_horizon;
    Alcotest.test_case "kill -9: durable acks survive restart" `Quick
      test_kill_durable_acks_survive;
    Alcotest.test_case "SIGTERM checkpoints the log" `Quick test_sigterm_checkpoints;
    Alcotest.test_case "kill -9 + torn tail: retry repairs" `Quick
      test_kill_lost_tail_repaired_by_retry;
    Alcotest.test_case "a served directory is locked" `Quick test_directory_lock;
    Alcotest.test_case "two handles in one process share the lock" `Quick
      test_directory_lock_shared_in_process;
    Alcotest.test_case "spitz sql commits each statement" `Quick
      test_cli_sql_commits_each_statement;
    Alcotest.test_case "a single-file database moves into a directory" `Quick
      test_single_file_moves_into_a_directory;
  ]
