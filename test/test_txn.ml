open Spitz_txn

(* --- timestamp oracle --- *)

let test_timestamp () =
  let o = Timestamp.create () in
  let a = Timestamp.next o in
  let b = Timestamp.next o in
  Alcotest.(check bool) "monotonic" true (b > a);
  Alcotest.(check int) "peek does not allocate" (Timestamp.peek o) (Timestamp.peek o);
  Alcotest.(check int) "allocations" 2 (Timestamp.allocations o)

(* --- MVCC store --- *)

let test_mvcc_snapshots () =
  let m = Mvcc.create () in
  Mvcc.write m "k" ~ts:10 (Some "v10");
  Mvcc.write m "k" ~ts:20 (Some "v20");
  Mvcc.write m "k" ~ts:30 None; (* delete *)
  Alcotest.(check (option string)) "before first" None (Mvcc.read_value m "k" ~ts:5);
  Alcotest.(check (option string)) "at 10" (Some "v10") (Mvcc.read_value m "k" ~ts:10);
  Alcotest.(check (option string)) "at 15" (Some "v10") (Mvcc.read_value m "k" ~ts:15);
  Alcotest.(check (option string)) "at 20" (Some "v20") (Mvcc.read_value m "k" ~ts:25);
  Alcotest.(check (option string)) "after delete" None (Mvcc.read_value m "k" ~ts:35);
  Alcotest.(check (option string)) "latest" None (Mvcc.read_latest m "k");
  Alcotest.(check int) "latest ts" 30 (Mvcc.latest_ts m "k");
  Alcotest.(check int) "version count" 3 (List.length (Mvcc.versions m "k"))

let test_mvcc_out_of_order_install () =
  let m = Mvcc.create () in
  Mvcc.write m "k" ~ts:20 (Some "v20");
  Mvcc.write m "k" ~ts:10 (Some "v10");
  Alcotest.(check (option string)) "ordering kept" (Some "v10") (Mvcc.read_value m "k" ~ts:15);
  Alcotest.(check (option string)) "newest wins" (Some "v20") (Mvcc.read_value m "k" ~ts:99);
  Mvcc.write m "k" ~ts:20 (Some "v20b");
  Alcotest.(check (option string)) "equal ts overwrites" (Some "v20b")
    (Mvcc.read_value m "k" ~ts:20)

let test_mvcc_gc () =
  let m = Mvcc.create () in
  List.iter (fun ts -> Mvcc.write m "k" ~ts (Some (string_of_int ts))) [ 1; 2; 3; 4; 5 ];
  Mvcc.gc m ~before:3;
  Alcotest.(check (option string)) "snapshot at gc horizon still reads" (Some "3")
    (Mvcc.read_value m "k" ~ts:3);
  Alcotest.(check (option string)) "newer versions intact" (Some "5") (Mvcc.read_value m "k" ~ts:9);
  Alcotest.(check int) "old versions dropped" 3 (List.length (Mvcc.versions m "k"))

(* --- lock manager --- *)

let test_locks_shared_compatible () =
  let lm = Lock_manager.create () in
  Alcotest.(check bool) "s1" true (Lock_manager.acquire lm ~txn:1 ~mode:Lock_manager.Shared "k" = Lock_manager.Granted);
  Alcotest.(check bool) "s2" true (Lock_manager.acquire lm ~txn:2 ~mode:Lock_manager.Shared "k" = Lock_manager.Granted);
  (* older txn 0 conflicts on exclusive: waits (wait-die) *)
  Alcotest.(check bool) "older waits" true
    (Lock_manager.acquire lm ~txn:0 ~mode:Lock_manager.Exclusive "k" = Lock_manager.Must_wait);
  (* younger txn 3 conflicts: dies *)
  Alcotest.(check bool) "younger dies" true
    (Lock_manager.acquire lm ~txn:3 ~mode:Lock_manager.Exclusive "k" = Lock_manager.Must_abort)

let test_locks_upgrade_and_release () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.acquire lm ~txn:1 ~mode:Lock_manager.Shared "k");
  Alcotest.(check bool) "self upgrade" true
    (Lock_manager.acquire lm ~txn:1 ~mode:Lock_manager.Exclusive "k" = Lock_manager.Granted);
  Alcotest.(check bool) "reentrant" true
    (Lock_manager.acquire lm ~txn:1 ~mode:Lock_manager.Exclusive "k" = Lock_manager.Granted);
  Alcotest.(check (list string)) "held" [ "k" ] (Lock_manager.held_by lm ~txn:1);
  Lock_manager.release_all lm ~txn:1;
  Alcotest.(check int) "all released" 0 (Lock_manager.lock_count lm);
  Alcotest.(check bool) "free after release" true
    (Lock_manager.acquire lm ~txn:2 ~mode:Lock_manager.Exclusive "k" = Lock_manager.Granted)

(* --- OCC validation --- *)

let test_occ_validate () =
  let m = Mvcc.create () in
  Mvcc.write m "a" ~ts:5 (Some "x");
  let fp = { Occ.txn = 1; start_ts = 10; reads = [ ("a", 5) ]; writes = [ "b" ] } in
  Alcotest.(check bool) "clean commit" true (Occ.validate m ~commit_ts:11 fp = Occ.Commit 11);
  (* someone overwrote "a" after we read version 5 *)
  Mvcc.write m "a" ~ts:8 (Some "y");
  Alcotest.(check bool) "stale read aborts" true (Occ.validate m ~commit_ts:12 fp = Occ.Abort);
  (* write-write conflict *)
  let fp2 = { Occ.txn = 2; start_ts = 6; reads = []; writes = [ "a" ] } in
  Alcotest.(check bool) "overwritten write aborts" true (Occ.validate m ~commit_ts:13 fp2 = Occ.Abort)

let test_occ_batch () =
  let m = Mvcc.create () in
  Mvcc.write m "x" ~ts:1 (Some "0");
  let ts = ref 100 in
  let next_ts () = incr ts; !ts in
  let fp1 = { Occ.txn = 1; start_ts = 10; reads = [ ("x", 1) ]; writes = [ "x" ] } in
  let fp2 = { Occ.txn = 2; start_ts = 11; reads = [ ("x", 1) ]; writes = [ "x" ] } in
  let fp3 = { Occ.txn = 3; start_ts = 12; reads = []; writes = [ "y" ] } in
  match Occ.validate_batch m ~next_ts [ fp1; fp2; fp3 ] with
  | [ v1; v2; v3 ] ->
    Alcotest.(check bool) "first wins" true (match v1 with Occ.Commit _ -> true | _ -> false);
    Alcotest.(check bool) "conflicting second aborts" true (v2 = Occ.Abort);
    Alcotest.(check bool) "disjoint third commits" true
      (match v3 with Occ.Commit _ -> true | _ -> false)
  | _ -> Alcotest.fail "wrong arity"

(* --- scheduler: every engine must serialize increments correctly --- *)

let increment_spec n_txns keys =
  List.init n_txns (fun i ->
      let k = Printf.sprintf "ctr%d" (i mod keys) in
      [ Scheduler.Rmw (k, fun v -> string_of_int (1 + match v with Some s -> int_of_string s | None -> 0)) ])

let test_engine_no_lost_updates engine () =
  let keys = 4 and n = 64 in
  let store = Mvcc.create () in
  let oracle = Timestamp.create () in
  let stats = Scheduler.run ~engine ~store ~oracle (increment_spec n keys) in
  Alcotest.(check int) "all committed" n stats.Scheduler.committed;
  let total = ref 0 in
  for i = 0 to keys - 1 do
    match Mvcc.read_latest store (Printf.sprintf "ctr%d" i) with
    | Some s -> total := !total + int_of_string s
    | None -> ()
  done;
  (* lost updates would make the sum fall short *)
  Alcotest.(check int) "increments all applied" n !total

let test_engine_transfer_invariant engine () =
  (* concurrent transfers preserve total balance — requires serializability *)
  let accounts = 6 and n = 80 in
  let store = Mvcc.create () in
  let oracle = Timestamp.create () in
  List.iteri (fun i () -> Mvcc.write store (Printf.sprintf "acct%d" i) ~ts:0 (Some "100"))
    (List.init accounts (fun _ -> ()));
  let specs =
    List.init n (fun i ->
        let src = Printf.sprintf "acct%d" (i mod accounts) in
        let dst = Printf.sprintf "acct%d" ((i + 1) mod accounts) in
        [
          Scheduler.Rmw (src, fun v -> string_of_int (int_of_string (Option.get v) - 1));
          Scheduler.Rmw (dst, fun v -> string_of_int (int_of_string (Option.get v) + 1));
        ])
  in
  let stats = Scheduler.run ~engine ~store ~oracle specs in
  Alcotest.(check int) "all committed" n stats.Scheduler.committed;
  let total = ref 0 in
  for i = 0 to accounts - 1 do
    total := !total + int_of_string (Option.get (Mvcc.read_latest store (Printf.sprintf "acct%d" i)))
  done;
  Alcotest.(check int) "balance conserved" (accounts * 100) !total

let test_read_committed_fewer_aborts () =
  let mk isolation =
    let store = Mvcc.create () in
    let oracle = Timestamp.create () in
    (* read-heavy transactions against one hot key *)
    let specs =
      List.init 60 (fun i ->
          if i mod 10 = 0 then
            [ Scheduler.Rmw ("hot", fun v -> string_of_int (1 + match v with Some s -> int_of_string s | None -> 0)) ]
          else [ Scheduler.Read "hot"; Scheduler.Read "hot"; Scheduler.Read "hot" ])
    in
    Scheduler.run ~isolation ~engine:Scheduler.Mvcc_occ ~store ~oracle specs
  in
  let ser = mk Scheduler.Serializable in
  let rc = mk Scheduler.Read_committed in
  Alcotest.(check bool) "read committed aborts no more than serializable" true
    (rc.Scheduler.aborted <= ser.Scheduler.aborted);
  Alcotest.(check int) "all commit under rc" 60 rc.Scheduler.committed

let suite =
  [
    Alcotest.test_case "timestamp oracle" `Quick test_timestamp;
    Alcotest.test_case "mvcc snapshots" `Quick test_mvcc_snapshots;
    Alcotest.test_case "mvcc out-of-order install" `Quick test_mvcc_out_of_order_install;
    Alcotest.test_case "mvcc gc" `Quick test_mvcc_gc;
    Alcotest.test_case "locks shared/exclusive" `Quick test_locks_shared_compatible;
    Alcotest.test_case "locks upgrade+release" `Quick test_locks_upgrade_and_release;
    Alcotest.test_case "occ validate" `Quick test_occ_validate;
    Alcotest.test_case "occ batch" `Quick test_occ_batch;
    Alcotest.test_case "no lost updates (mvcc-to)" `Quick (test_engine_no_lost_updates Scheduler.Mvcc_to);
    Alcotest.test_case "no lost updates (mvcc-occ)" `Quick (test_engine_no_lost_updates Scheduler.Mvcc_occ);
    Alcotest.test_case "no lost updates (2pl)" `Quick (test_engine_no_lost_updates Scheduler.Two_pl);
    Alcotest.test_case "transfers conserve (mvcc-to)" `Quick (test_engine_transfer_invariant Scheduler.Mvcc_to);
    Alcotest.test_case "transfers conserve (mvcc-occ)" `Quick (test_engine_transfer_invariant Scheduler.Mvcc_occ);
    Alcotest.test_case "transfers conserve (2pl)" `Quick (test_engine_transfer_invariant Scheduler.Two_pl);
    Alcotest.test_case "read committed isolation" `Quick test_read_committed_fewer_aborts;
  ]

(* deterministic replay: the same seed produces the same interleaving *)
let test_scheduler_deterministic () =
  let run () =
    let store = Mvcc.create () in
    let oracle = Timestamp.create () in
    let specs = increment_spec 40 3 in
    Scheduler.run ~seed:77 ~engine:Scheduler.Mvcc_occ ~store ~oracle specs
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same stats" true (a = b)

(* bounded concurrency: fewer slots means less contention *)
let test_scheduler_concurrency_bound () =
  let run concurrency =
    let store = Mvcc.create () in
    let oracle = Timestamp.create () in
    Scheduler.run ~concurrency ~engine:Scheduler.Mvcc_occ ~store ~oracle (increment_spec 64 1)
  in
  let serial = run 1 in
  Alcotest.(check int) "serial run never aborts" 0 serial.Scheduler.aborted;
  Alcotest.(check int) "serial commits all" 64 serial.Scheduler.committed

let suite =
  suite
  @ [
      Alcotest.test_case "scheduler deterministic" `Quick test_scheduler_deterministic;
      Alcotest.test_case "scheduler concurrency bound" `Quick test_scheduler_concurrency_bound;
    ]
