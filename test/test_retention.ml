open Spitz
open Spitz_storage
module Server = Spitz_server.Server
module Session = Spitz_server.Session
module Kv_node = Spitz_adt.Kv_node
module Ipc = Spitz_nonintrusive.Ipc

(* A durable handle keeps the newest [Db.retained_instances] index
   instances and reclaims every node only older ones need: the horizon
   follows the head, the stored index nodes stay bounded, and nothing a
   retained instance, a value, a body or a re-created node needs is ever
   deleted. *)

let temp_dir () =
  let path = Filename.temp_file "spitz_ret" ".dir" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
        Fault.reset ();
        rm_rf dir)
    (fun () -> f dir)

let with_durable ?(sync = Wal.Never) dir f =
  let d = Db.open_durable ~sync dir in
  Fun.protect ~finally:(fun () -> try Db.close_durable d with _ -> ()) (fun () -> f d (Db.durable_db d))

let key i = Printf.sprintf "k%05d" i

let load db n =
  for b = 0 to (n / 512) - 1 do
    ignore (Db.put_batch db (List.init 512 (fun i -> let k = key ((b * 512) + i) in (k, "v0-" ^ k))))
  done

(* [n] commits of 16 keys drawn from [0, keys) *)
let churn ?(seed = 7) db ~keys n =
  let rng = Random.State.make [| seed |] in
  for u = 1 to n do
    ignore
      (Db.put_batch db
         (List.init 16 (fun _ ->
              let k = key (Random.State.int rng keys) in
              (k, Printf.sprintf "v%d-%s" u k))))
  done

let head db = Db.L.height (Db.ledger db) - 1

let head_nodes db =
  let n = ref 0 in
  Option.iter
    (fun s -> Db.L.mark_instance (Db.ledger db) (Db.Snapshot.index_root s) (fun _ -> incr n))
    (Db.snapshot db);
  !n

let check_bounded db =
  let st = Db.retention_stats db in
  let bound = head_nodes db + st.Db.filed_nodes in
  if st.Db.index_nodes > bound then
    Alcotest.failf "%d index nodes stored, more than %d (head instance plus filed)" st.Db.index_nodes
      bound;
  Alcotest.(check int) "horizon is head - 63" (head db - (Db.retained_instances - 1)) (Db.horizon db)

let test_window_after_2000_commits () =
  with_dir (fun dir ->
      with_durable dir (fun _ db ->
          load db 2048;
          churn db ~keys:2048 2000;
          check_bounded db;
          let st = Db.retention_stats db in
          Alcotest.(check bool) "superseded nodes were reclaimed" true (st.Db.reclaimed_nodes > 0);
          (* the oldest retained instance reads and proves; one below it is refused *)
          let horizon = Db.horizon db in
          let s = Option.get (Db.snapshot ~height:horizon db) in
          let v, proof = Db.Snapshot.get_verified s (key 5) in
          Alcotest.(check bool) "oldest retained instance proves" true
            (Db.verify_read ~digest:(Db.Snapshot.digest s) ~key:(key 5) ~value:v proof);
          Alcotest.(check (option string)) "and matches the cell history" (Db.get_at db ~height:horizon (key 5)) v;
          match Db.snapshot ~height:(horizon - 1) db with
          | exception Db.Below_horizon { height; horizon = h } ->
            Alcotest.(check int) "refused height" (horizon - 1) height;
            Alcotest.(check int) "reported horizon" horizon h
          | _ -> Alcotest.fail "a pin below the window was served"))

let test_in_memory_keeps_every_instance () =
  let db = Db.open_db () in
  load db 512;
  churn db ~keys:512 100;
  Alcotest.(check int) "horizon" 0 (Db.horizon db);
  let s = Option.get (Db.snapshot ~height:0 db) in
  Alcotest.(check (option string)) "block 0 still reads" (Some ("v0-" ^ key 3)) (Db.Snapshot.get s (key 3));
  Alcotest.(check int) "no index class" 0 (Db.retention_stats db).Db.index_nodes

let test_session_reanchors_past_window () =
  with_dir (fun dir ->
      with_durable dir (fun _ db ->
          load db 512;
          let server = Server.start ~config:{ Server.default_config with accept_domains = 1 } db in
          Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
          let session = Session.connect ~port:(Server.port server) () in
          Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
          Session.sync session;
          let pin = Option.get (Session.pin_height session) in
          churn db ~keys:512 65;
          ignore (Db.put db (key 1) "latest");
          (match Db.snapshot ~height:pin db with
           | exception Db.Below_horizon _ -> ()
           | _ -> Alcotest.fail "a pin 65 blocks back was served");
          Alcotest.(check (option string)) "verified read re-anchors" (Some "latest")
            (Session.get_verified session (key 1));
          Alcotest.(check (option int)) "pin moved to the head" (Some (head db))
            (Session.pin_height session);
          Alcotest.(check int) "no verification failures" 0 (Session.failures session)))

let test_pin_passed_mid_read () =
  with_dir (fun dir ->
      with_durable dir (fun _ db ->
          load db 512;
          let s = Option.get (Db.snapshot db) in
          (* the pin is retained when taken; the window then passes it *)
          churn db ~keys:512 (Db.retained_instances + 1);
          Alcotest.(check bool) "snapshot no longer valid" false (Db.Snapshot.valid db s);
          let below f =
            match f () with
            | exception Db.Below_horizon { height; _ } ->
              Alcotest.(check int) "pinned height" (Db.Snapshot.height s) height
            | _ -> Alcotest.fail "a read through a reclaimed instance answered"
          in
          below (fun () -> ignore (Db.Snapshot.get s (key 9)));
          below (fun () -> ignore (Db.Snapshot.get_verified s (key 10)));
          below (fun () -> ignore (Db.Snapshot.get_batch_verified s [ key 11; key 12 ]));
          below (fun () -> ignore (Db.Snapshot.range_verified s ~lo:(key 13) ~hi:(key 20)));
          (* over the wire the pin is answered in kind, not "not found" *)
          let server = Server.start ~config:{ Server.default_config with accept_domains = 1 } db in
          Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
          let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          Spitz_server.Frame.write fd
            (Ipc.encode_request (Ipc.SnapGet (Db.Snapshot.height s, key 21)));
          match Ipc.decode_response (Spitz_server.Frame.read fd) with
          | Ipc.Below_horizon h -> Alcotest.(check int) "horizon answered" (Db.horizon db) h
          | _ -> Alcotest.fail "the server did not answer Below_horizon"))

(* The leftmost leaf of the head instance. *)
let leftmost_leaf db =
  let store = Db.store db in
  let root = Db.Snapshot.index_root (Option.get (Db.snapshot db)) in
  let rec down h =
    match Kv_node.decode (Object_store.get_exn store h) with
    | Kv_node.Leaf _ -> h
    | Kv_node.Internal children -> down (snd children.(0))
  in
  down root

let test_value_equal_to_node_survives () =
  with_dir (fun dir ->
      let evil = ref "" and root_shaped = ref "" in
      let history = ref [] in
      with_durable dir (fun d db ->
          load db 512;
          (* a value whose bytes are a live node's: put as a value, its
             address leaves the index class *)
          let root = Db.Snapshot.index_root (Option.get (Db.snapshot db)) in
          root_shaped := Object_store.get_exn (Db.store db) root;
          ignore (Db.put db "zz-root" !root_shaped);
          (* a value equal to a leaf the checkpoint writes as part of the
             head instance: the reopen classifies the head and must keep it *)
          evil := Object_store.get_exn (Db.store db) (leftmost_leaf db);
          ignore (Db.put db "zz-leaf" !evil);
          Db.checkpoint d;
          Db.close_durable d);
      with_durable dir (fun _ db ->
          (* a value put while its bytes are a live node of this handle:
             the put takes the address out of the index class *)
          let root = Db.Snapshot.index_root (Option.get (Db.snapshot db)) in
          let live_bytes = Object_store.get_exn (Db.store db) root in
          ignore (Db.put db "zz-live" live_bytes);
          (* supersede the nodes, then let the window pass them *)
          ignore (Db.put db (key 0) "moved");
          churn db ~keys:512 (Db.retained_instances + 5);
          Alcotest.(check (option string)) "leaf-shaped value reads" (Some !evil) (Db.get db "zz-leaf");
          Alcotest.(check (option string)) "root-shaped value reads" (Some !root_shaped)
            (Db.get db "zz-root");
          Alcotest.(check (option string)) "live-node value reads" (Some live_bytes)
            (Db.get db "zz-live");
          let v, proof = Db.get_verified db "zz-leaf" in
          Alcotest.(check bool) "verified" true
            (Db.verify_read ~digest:(Db.digest db) ~key:"zz-leaf" ~value:v (Option.get proof));
          history := Db.history db "zz-leaf";
          Alcotest.(check bool) "audit" true (Db.audit db));
      (* a reopen re-running the whole log tail, then one from a checkpoint *)
      with_durable dir (fun d db ->
          Alcotest.(check (option string)) "after a log re-run" (Some !evil) (Db.get db "zz-leaf");
          Alcotest.(check bool) "history" true (Db.history db "zz-leaf" = !history);
          Alcotest.(check bool) "audit" true (Db.audit db);
          Db.checkpoint d);
      with_durable dir (fun _ db ->
          Alcotest.(check (option string)) "after a checkpoint" (Some !evil) (Db.get db "zz-leaf");
          Alcotest.(check (option string)) "root-shaped value" (Some !root_shaped)
            (Db.get db "zz-root");
          Alcotest.(check bool) "audit" true (Db.audit db)))

let test_recreated_node_survives () =
  with_dir (fun dir ->
      with_durable dir (fun _ db ->
          load db 512;
          ignore (Db.put db (key 0) "v1");
          let leaf = leftmost_leaf db in
          ignore (Db.put db (key 0) "v2");
          Alcotest.(check bool) "superseded" false (Spitz_crypto.Hash.equal leaf (leftmost_leaf db));
          ignore (Db.put db (key 0) "v1");
          Alcotest.(check bool) "created again" true (Spitz_crypto.Hash.equal leaf (leftmost_leaf db));
          (* commits far from the leaf carry the window past its supersession *)
          let rng = Random.State.make [| 3 |] in
          for u = 1 to Db.retained_instances + 10 do
            ignore (Db.put db (key (400 + Random.State.int rng 112)) (string_of_int u))
          done;
          Alcotest.(check bool) "still stored" true (Object_store.mem (Db.store db) leaf);
          let v, proof = Db.get_verified db (key 0) in
          Alcotest.(check (option string)) "reads v1" (Some "v1") v;
          Alcotest.(check bool) "proves" true
            (Db.verify_read ~digest:(Db.digest db) ~key:(key 0) ~value:v (Option.get proof))))

let test_checkpoint_races_commits () =
  with_dir (fun dir ->
      let digest = ref None in
      with_durable ~sync:Wal.Always dir (fun d db ->
          load db 1024;
          Db.set_checkpoint_policy d (Db.Every_n_records 10);
          let writers =
            List.init 2 (fun w -> Domain.spawn (fun () -> churn ~seed:(w + 1) db ~keys:1024 100))
          in
          List.iter Domain.join writers;
          Db.set_checkpoint_policy d Db.Manual;
          let st = Db.checkpoint_stats d in
          Alcotest.(check int) "no checkpoint failed" 0 st.Db.failures;
          Alcotest.(check bool) "checkpoints ran" true (st.Db.checkpoints > 0);
          check_bounded db;
          digest := Some (Db.digest db));
      with_durable dir (fun _ db ->
          Alcotest.(check bool) "digest" true (Some (Db.digest db) = !digest);
          Alcotest.(check bool) "audit" true (Db.audit db);
          let v, proof = Db.get_verified db (key 7) in
          Alcotest.(check bool) "head proves" true
            (Db.verify_read ~digest:(Db.digest db) ~key:(key 7) ~value:v (Option.get proof))))

let test_reopen_with_long_tail () =
  with_dir (fun dir ->
      with_durable dir (fun _ db ->
          load db 2048;
          churn db ~keys:2048 2000);
      with_durable dir (fun _ db ->
          check_bounded db;
          let st = Db.retention_stats db in
          (* the re-run reclaims as the live run did *)
          Alcotest.(check bool) "reclaimed during the re-run" true (st.Db.reclaimed_nodes > 0);
          Alcotest.(check bool) "audit" true (Db.audit db)))

let test_raising_commit_retires_nothing () =
  with_dir (fun dir ->
      with_durable dir (fun _ db ->
          load db 512;
          churn db ~keys:512 4;
          let root = Db.Snapshot.index_root (Option.get (Db.snapshot db)) in
          let before = Db.retention_stats db in
          Fault.arm "commit.before_wal";
          (match Db.put_batch db [ (key 1, "x"); (key 300, "y") ] with
           | exception Fault.Crash _ -> ()
           | _ -> Alcotest.fail "commit.before_wal did not fire");
          Fault.reset ();
          let after = Db.retention_stats db in
          Alcotest.(check int) "nothing filed" before.Db.filed_nodes after.Db.filed_nodes;
          Alcotest.(check int) "nothing reclaimed" before.Db.reclaimed_nodes after.Db.reclaimed_nodes;
          (* the block is in the ledger, so the window moves past it *)
          churn db ~keys:512 (Db.retained_instances + 2);
          Alcotest.(check bool) "what it superseded is never reclaimed" true
            (Object_store.mem (Db.store db) root)))

let test_mark_leaves_node_cache_alone () =
  with_dir (fun dir ->
      with_durable dir (fun d db ->
          load db 2048;
          churn db ~keys:2048 30;
          let length () = Node_cache.length Kv_node.cache in
          let before = length () in
          Db.checkpoint d;
          Alcotest.(check int) "checkpoint" before (length ())))

let suite =
  [
    Alcotest.test_case "2,000 commits: horizon is head - 63, index set bounded" `Quick
      test_window_after_2000_commits;
    Alcotest.test_case "in-memory database keeps every instance" `Quick
      test_in_memory_keeps_every_instance;
    Alcotest.test_case "pin 65 blocks back: Below_horizon, session re-anchors" `Quick
      test_session_reanchors_past_window;
    Alcotest.test_case "pin passed mid-read answers Below_horizon" `Quick test_pin_passed_mid_read;
    Alcotest.test_case "value equal to a node's encoding stays readable" `Quick
      test_value_equal_to_node_survives;
    Alcotest.test_case "node created again after supersession survives" `Quick
      test_recreated_node_survives;
    Alcotest.test_case "background checkpoint racing 200 commits" `Quick
      test_checkpoint_races_commits;
    Alcotest.test_case "reopen with a 2,000-record tail is bounded" `Quick test_reopen_with_long_tail;
    Alcotest.test_case "a commit that raises retires nothing" `Quick
      test_raising_commit_retires_nothing;
    Alcotest.test_case "checkpoint and compact leave the node cache alone" `Quick
      test_mark_leaves_node_cache_alone;
  ]
