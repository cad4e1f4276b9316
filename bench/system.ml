(* The commit-path, read-path, buffer-layer and fuzz legs. Each checks
   correctness as well as speed. All timings are wall-clock ([Runner.now]):
   CPU time would sum over domains and hide every multicore speedup. *)

open Spitz_workload
open Harness
module Os = Spitz_storage.Object_store
module Wal = Spitz_storage.Wal
module Ipc = Spitz_nonintrusive.Ipc
module Frame = Spitz_server.Frame
module Server = Spitz_server.Server
module Mbp = Spitz_adt.Merkle_bptree

(* ---------- durability: fsync policies + recovery ---------- *)

(* The served write shape: 384 commits of 16 keys drawn by [pick] from the
   16,384 that [batches ~size:512 16_384] loads, version b+1 in commit b. *)
let served_commits pick =
  Array.init 384 (fun b ->
      List.init 16 (fun _ ->
          let k = Keygen.key_of (pick ()) in
          (k, Keygen.value_of ~version:(b + 1) k)))

(* Reopen [dir], timed, and [f] the reopened handle. *)
let reopen dir f =
  let d, seconds = Runner.time (fun () -> Db.open_durable dir) in
  Fun.protect ~finally:(fun () -> Db.close_durable d) (fun () -> f d seconds)

(* Where a reopen's time went, phase by phase, and what it walked. *)
let open_phases d =
  let o = Db.open_stats d in
  let ms s = num (s *. 1e3) in
  [
    ("snapshot_restore_ms", ms o.Db.snapshot_restore_s);
    ("ledger_restore_ms", ms o.Db.ledger_restore_s);
    ("cell_rebuild_ms", ms o.Db.cell_rebuild_s);
    ("log_rerun_ms", ms o.Db.log_rerun_s);
    ("audit_ms", ms o.Db.audit_s);
    ("objects", int o.Db.objects);
    ("entries", int o.Db.entries);
  ]

(* Commit throughput and log bytes per commit with the write-ahead log on
   the commit path, one leg per fsync policy, then recovery (open_durable =
   snapshot restore + re-run of every logged batch + chain re-verification)
   as a function of log length. *)
let durability () =
  let commits = max 200 (4000 / !scale) in
  title "Durability: WAL commit throughput per fsync policy (%d commits)" commits;
  (* baseline: the same commits with no log attached *)
  let t_nowal = fill (Db.open_db ()) commits in
  let emit = table () in
  let policy_rows =
    List.map
      (fun (name, sync) ->
         with_durable ~sync (fun _ d ->
             let thr = fill (Db.durable_db d) commits in
             let bytes = Db.wal_size d in
             ( name,
               emit ~label:name
                 [
                   ("commits_kops", kops thr);
                   ("log_bytes", int bytes);
                   ("log_bytes_per_commit", num (float_of_int bytes /. float_of_int commits));
                   ("relative_to_no_wal", num (thr /. t_nowal));
                 ] )))
      [ ("always", Wal.Always); ("interval-64", Wal.Interval 64); ("never", Wal.Never) ]
  in
  let no_wal = record [ ("no_wal_kops", kops t_nowal) ] in
  (* replay re-runs every logged commit, so a record costs about one
     in-memory commit: us/record is the per-record price of a restart; with
     a checkpoint taken, recovery collapses to a snapshot load *)
  pr "\n-- recovery time vs log length (no checkpoint: every record re-run) --\n";
  let emit = table () in
  let recovery ?(checkpoint = false) n =
    with_durable ~sync:Wal.Never (fun dir d ->
        ignore (fill (Db.durable_db d) n);
        if checkpoint then Db.checkpoint d;
        Db.close_durable d;
        let wal = Filename.concat dir "wal" in
        let bytes =
          Array.fold_left
            (fun acc f -> acc + Spitz_storage.Fault.file_size (Filename.concat wal f))
            0 (Sys.readdir wal)
        in
        reopen dir (fun d seconds ->
            assert ((Db.digest (Db.durable_db d)).Spitz_ledger.Journal.size = n);
            let kops = ("recovery_kops", num (float_of_int n /. seconds /. 1e3)) in
            if checkpoint then
              emit ~label:"after checkpoint"
                ([ ("log_commits", int n); ("recovery_seconds", num seconds); kops ] @ open_phases d)
            else
              emit
                [
                  ("log_commits", int n);
                  ("log_bytes", int bytes);
                  ("log_bytes_per_commit", num (float_of_int bytes /. float_of_int n));
                  ("recovery_seconds", num seconds);
                  kops;
                  ("replay_us_per_record", num (seconds /. float_of_int n *. 1e6));
                ]))
  in
  let recovery_rows = List.map recovery [ commits / 4; commits / 2; commits ] in
  let checkpointed = recovery ~checkpoint:true commits in
  (* what a checkpoint writes and costs on a served-path-shaped state, at
     every scale: a 16,384-key load in 512-key blocks, then 384 commits of
     16 updated keys — the perfbench durable-commit state after its fixed
     phase *)
  let keys = 16_384 in
  pr "\n-- checkpoint of %d keys + 384 commits of 16 --\n" keys;
  let ckpt_size =
    with_durable ~sync:Wal.Never (fun dir d ->
        let db = Db.durable_db d in
        let put kvs = ignore (Db.put_batch db kvs) in
        List.iter put (batches ~size:512 keys);
        let rng = Keygen.rng 27 in
        Array.iter put (served_commits (fun () -> Keygen.int rng keys));
        (* empty the minor heap first: the 384 commits leave megabytes there, and
           promoting them is the commits' cost, not the checkpoint's *)
        Gc.minor ();
        let (), ckpt_s = Runner.time (fun () -> Db.checkpoint d) in
        let lock_ms = (Db.checkpoint_stats d).Db.max_lock_hold_s *. 1e3 in
        let live_objects = Os.object_count (Db.store db) in
        Db.close_durable d;
        let bytes = Spitz_storage.Fault.file_size (Filename.concat dir "snapshot") in
        reopen dir (fun d' open_s ->
            J.Obj
              (record
                 ([
                   ("keys", int keys);
                   ("blocks", int ((keys / 512) + 384));
                   ("live_objects", int live_objects);
                   ("snapshot_bytes", int bytes);
                   ("snapshot_objects", int (Os.object_count (Db.store (Db.durable_db d'))));
                   ("checkpoint_seconds", num ckpt_s);
                   ("commit_lock_hold_ms", num lock_ms);
                   ("reopen_seconds", num open_s);
                 ]
                 @ open_phases d'))))
  in
  (* bounded memory on the served path: a durable handle keeps the head
     instance and what the newest [Db.retained_instances] blocks
     superseded, however many blocks commit *)
  let bounded_commits = 2_000 in
  pr "\n-- retention: %d keys + %d commits of 16 on a durable handle --\n" keys bounded_commits;
  let retention =
    with_durable ~sync:Wal.Never (fun _ d ->
        let db = Db.durable_db d in
        let put kvs = ignore (Db.put_batch db kvs) in
        List.iter put (batches ~size:512 keys);
        let rng = Keygen.rng 32 in
        let (), commit_s =
          Runner.time (fun () ->
              for b = 1 to bounded_commits do
                put
                  (List.init 16 (fun _ ->
                       let k = Keygen.key_of (Keygen.int rng keys) in
                       (k, Keygen.value_of ~version:b k)))
              done)
        in
        let head = (Db.digest db).Spitz_ledger.Journal.size - 1 in
        let st = Db.retention_stats db in
        let head_nodes = ref 0 in
        Option.iter
          (fun s ->
             Db.L.mark_instance (Db.ledger db) (Db.Snapshot.index_root s) (fun _ -> incr head_nodes))
          (Db.snapshot db);
        let bound = !head_nodes + st.Db.filed_nodes in
        if st.Db.index_nodes > bound then
          fail "retention: %d index nodes stored, more than the head instance's %d plus the %d the newest %d blocks superseded"
            st.Db.index_nodes !head_nodes st.Db.filed_nodes Db.retained_instances;
        if Db.horizon db <> head - (Db.retained_instances - 1) then
          fail "retention: horizon %d after %d blocks, expected head - %d" (Db.horizon db) (head + 1)
            (Db.retained_instances - 1);
        emit ~label:"retention"
             [
               ("commits", int bounded_commits);
               ("commit_us", num (commit_s /. float_of_int bounded_commits *. 1e6));
               ("horizon", int (Db.horizon db));
               ("head_nodes", int !head_nodes);
               ("index_nodes", int st.Db.index_nodes);
               ("filed_nodes", int st.Db.filed_nodes);
               ("reclaimed_nodes", int st.Db.reclaimed_nodes);
               ("objects", int (Os.object_count (Db.store db)));
               ("bounded", bool (st.Db.index_nodes <= bound));
             ])
  in
  add_result "durability"
    (J.Obj
       (policy_rows
        @ no_wal
        @ [
          ("recovery", J.Arr recovery_rows);
          ("recovery_after_checkpoint", checkpointed);
          ("checkpoint_size", ckpt_size);
          ("retention", retention);
        ]));
  pr "(expected shape: interval-64 within a small factor of no-wal — one\n";
  pr " fsync amortized over 64 commits — while always pays a disk flush per\n";
  pr " commit; a log record is one commit's batch, so recovery re-runs each\n";
  pr " record at about the cost of one in-memory commit, grows linearly with\n";
  pr " log length and collapses to the snapshot-load cost once a checkpoint\n";
  pr " folds the log in)\n"

(* ---------- group commit: committer-concurrency sweep ---------- *)

(* Concurrent committers racing one durable database. Under [Always] a
   serial committer pays one fsync per commit, while concurrent committers
   are coalesced by the WAL's leader/follower protocol into shared
   write+fsync batches — so throughput should scale with committers. *)
let group_commit () =
  let commits = max 200 (4000 / !scale) in
  title "Group commit: committer sweep per fsync policy (%d commits)" commits;
  let emit = table () in
  let always = Hashtbl.create 4 in
  let policy (name, sync) =
    let row n =
      committer_leg ~leg:(Printf.sprintf "group-commit %s x%d" name n) ~sync ~n
        ~per:(commits / n) (fun d thr lat ->
          let st = Db.wal_stats d in
          (* one or two committers must never linger: a lone one has
             nobody to share its fsync with, and a pair overlaps each
             one's fsync with the other's commit *)
          if n <= 2 && st.Wal.lingers > 0 then
            fail "%s policy lingered %d times with %d committers" name st.Wal.lingers n;
          if name = "always" then Hashtbl.replace always n thr;
          let per_fsync = ratio (float_of_int st.Wal.records) (float_of_int st.Wal.fsyncs) in
          [ ("committers", int n); ("commits_kops", kops thr) ]
          @ lat
          @ [ ("records_per_fsync", num per_fsync); ("lingers", int st.Wal.lingers) ])
    in
    (name, J.Arr (List.map (fun n -> emit ~label:name (row n)) [ 1; 2; 4; 8 ]))
  in
  let policies =
    List.map policy
      [ ("always", Wal.Always); ("group", Wal.Group { max_batch = 8; max_delay_us = 200 });
        ("interval-64", Wal.Interval 64); ("never", Wal.Never) ]
  in
  let thr n = Option.value ~default:0. (Hashtbl.find_opt always n) in
  add_result "group_commit"
    (J.Obj
       ([ ("commits", int commits); ("policies", J.Obj policies) ]
        @ record [ ("always_speedup_8_vs_1", num (ratio (thr 8) (thr 1))) ]));
  pr "(expected shape: under always, throughput grows with committers — the\n";
  pr " log's leader batches concurrent records into one write+fsync — while\n";
  pr " never/interval legs, already fsync-light, gain less; tail latency\n";
  pr " rises with queueing but p50 stays near the fsync cost; 'equal' and\n";
  pr " 'audit' must be yes everywhere: group commit must not change digests\n";
  pr " or break recovery; every policy at 1 or 2 committers must show 0\n";
  pr " lingers)\n"

(* ---------- checkpoint under load: commit tail latency ---------- *)

(* What a committer feels of non-blocking checkpoints: commit latency with
   the background checkpointer running flat-out versus none. The reopen
   audit lands on whatever snapshot/segment mix the checkpointer left
   behind; a background leg whose checkpoints never fire, or fail, is a
   gate failure. *)
let checkpoint () =
  let n = 4 in
  let per = max 400 (6000 / !scale) / n in
  title "Checkpoint under load: %d committers x %d commits (always fsync)" n per;
  let emit = table () in
  let leg name ?policy () =
    let row =
      committer_leg ~leg:("checkpoint " ^ name) ~sync:Wal.Always ?policy ~n ~per
        (fun d thr lat ->
          let st = Db.checkpoint_stats d in
          if (policy <> None && st.Db.checkpoints = 0) || st.Db.failures > 0 then
            fail "checkpoint %s: %d checkpoints, %d failures" name st.Db.checkpoints st.Db.failures;
          [ ("commits_kops", kops thr) ]
          @ lat
          @ [
            ("checkpoints", int st.Db.checkpoints);
            ("auto_checkpoints", int st.Db.auto_checkpoints);
            ("retired_segments", int st.Db.retired_segments);
            ("checkpoint_failures", int st.Db.failures);
            ("max_commit_lock_hold_ms", num (st.Db.max_lock_hold_s *. 1e3));
          ])
    in
    let p99 = match List.assoc "p99_ms" row with J.Num x -> x | _ -> 0. in
    (p99, (name, emit ~label:name row))
  in
  let p99_none, none = leg "none" () in
  (* a record threshold: it fires a few times per run whatever the record
     size *)
  let p99_bg, background = leg "background" ~policy:(Db.Every_n_records 100) () in
  add_result "checkpoint"
    (J.Obj
       ([ ("commits", int (per * n)); ("committers", int n); none; background ]
        @ record [ ("p99_ratio_background_vs_none", num (ratio p99_bg p99_none)) ]));
  pr "(expected shape: the background leg's p50/p99 stay close to the\n";
  pr " no-checkpoint baseline — rotation under the commit lock is a file\n";
  pr " create + dir fsync, while snapshot save and retirement run beside the\n";
  pr " committers — and 'equal'/'audit' must be yes on both legs)\n"

(* ---------- read-scale: reader-domain sweep over the snapshot path ---------- *)

(* Reader domains hammer verified gets on pinned [Db.snapshot]s — the
   lock-free read path — while 0 or 2 committer domains race [Db.put]
   through the commit lock; readers share no lock and no mutable state (see
   DESIGN.md). Every proof must verify against its snapshot's own digest,
   and each reader's answers are checked against the ledger afterwards.
   Cache hit rates are per leg (counters reset at leg start). *)
let read_scale () =
  let n = max 1_000 (40_000 / !scale) in
  let reads = max 500 (!ops / 4) in
  let hot = min n 2_048 in
  title "Read scale: verified reads on pinned snapshots (%d records, %d reads/reader, hot set %d)"
    n reads hot;
  let db = Db.open_db () in
  ignore (fill db n);
  let kops_at = Hashtbl.create 4 in
  let emit = table () in
  let leg ~readers ~committers =
    Gc.full_major ();
    reset_cache_stats ();
    let stop = Atomic.make false in
    let bad = Atomic.make 0 in
    let committer_ds =
      List.init committers (fun c ->
          Domain.spawn (fun () ->
              let j = ref 0 in
              while not (Atomic.get stop) do
                ignore (Db.put db (Printf.sprintf "zz-c%d-%d" c !j) "w");
                incr j
              done;
              !j))
    in
    (* deterministic per-reader key stream over a hot set the proof cache
       can hold — offset per reader so streams overlap but don't coincide *)
    let key_at r j = Keygen.key_of (((r * 131) + j) mod hot) in
    let reader r () =
      let lat = Array.make reads 0. in
      let s = Option.get (Db.snapshot db) in
      let sd = Db.Snapshot.digest s in
      let obs = Array.make reads (None : string option) in
      for j = 0 to reads - 1 do
        let k = key_at r j in
        let t0 = Runner.now () in
        let v, p = Db.Snapshot.get_verified s k in
        lat.(j) <- Runner.now () -. t0;
        if not (Db.verify_read ~digest:sd ~key:k ~value:v p) then Atomic.incr bad;
        obs.(j) <- v
      done;
      (lat, s, obs)
    in
    let per_reader, wall =
      Runner.time (fun () ->
          List.map Domain.join (List.init readers (fun r -> Domain.spawn (reader r))))
    in
    Atomic.set stop true;
    let commits = List.fold_left (fun a d -> a + Domain.join d) 0 committer_ds in
    (* capture the leg's cache counters before the correctness replay below
       pollutes them *)
    let node_rate = hit_rate (NC.stats Spitz_adt.Kv_node.cache) in
    let proof_rate = hit_rate (Db.proof_cache_stats ()) in
    List.iteri
      (fun r (_, s, obs) ->
         if committers = 0 then begin
           (* the pinned view IS the head view, and a serial replay of the
              same stream on the same snapshot is bit-identical *)
           let sd = Db.Snapshot.digest s in
           if sd <> Db.digest db then Atomic.incr bad;
           for j = 0 to reads - 1 do
             let k = key_at r j in
             let v, p = Db.Snapshot.get_verified s k in
             if v <> obs.(j) || not (Db.verify_read ~digest:sd ~key:k ~value:v p) then
               Atomic.incr bad
           done
         end
         else begin
           (* the settled ledger agrees with what the reader saw at the
              pinned height *)
           let h = Db.Snapshot.height s in
           let j = ref 0 in
           while !j < reads do
             if Db.get_at db ~height:h (key_at r !j) <> obs.(!j) then Atomic.incr bad;
             j := !j + 64
           done
         end)
      per_reader;
    let ok = Atomic.get bad = 0 in
    if not ok then
      fail "read-scale %d readers, %d committers: %d bad reads" readers committers (Atomic.get bad);
    let thr = float_of_int (readers * reads) /. wall in
    if committers = 0 then Hashtbl.replace kops_at readers (Runner.kops thr);
    emit
      ([ ("readers", int readers); ("committers", int committers); ("reads_kops", kops thr) ]
       @ tail ~unit:us (Array.concat (List.map (fun (l, _, _) -> l) per_reader))
       @ [
         ("node_cache_hit_rate", num node_rate);
         ("proof_cache_hit_rate", num proof_rate);
         ("committer_commits", int commits);
         ("ok", bool ok);
       ])
  in
  let rows =
    List.concat_map
      (fun committers -> List.map (fun readers -> leg ~readers ~committers) [ 1; 2; 4; 8 ])
      [ 0; 2 ]
  in
  let at r = Option.value ~default:0. (Hashtbl.find_opt kops_at r) in
  add_result "read_scale"
    (J.Obj
       ([ ("records", int n); ("reads_per_reader", int reads); ("hot_set", int hot);
          ("legs", J.Arr rows) ]
        @ record [ ("speedup_8_vs_1_readers", num (ratio (at 8) (at 1))) ]));
  pr "(expected shape: on a multicore box reads/s grows near-linearly with\n";
  pr " readers — snapshots share no lock — and 2 racing committers barely\n";
  pr " dent it; on a single core every leg lands near the 1-reader rate and\n";
  pr " the figure measures per-read overhead; proof-cache hit rate climbs\n";
  pr " toward 100%% once the hot set's proofs are memoized; 'ok' must be yes\n";
  pr " everywhere — digests, values and proof decisions are checked against\n";
  pr " serial replay / the settled ledger)\n"

(* ---------- server: TCP round-trip sweep over the loopback front-end ---------- *)

(* Client connections hammer the TCP server with a read-mostly mix (7 Gets :
   1 single-put Apply under a fresh token) at 1/2/4/8 connections, with and
   without pipelining (a window of requests in flight). Clients are
   systhreads speaking the raw Frame+Ipc protocol: the verifying Session
   deliberately does not pipeline. Each leg's committed order (seed chunks
   and every Apply, with its token statement) must replay serially, and a
   verifying session must then sync to the head and proof-check reads. *)
let server () =
  let module Server = Spitz_server.Server in
  let module Session = Spitz_server.Session in
  let n = max 1_000 (20_000 / !scale) in
  let per = max 200 (!ops / 4) in
  let hot = min n 2_048 in
  title "Server: TCP round-trips over loopback (%d records, %d requests/conn, 7:1 read:write)" n
    per;
  let db = Db.open_db () in
  List.iter (fun kvs -> ignore (Db.put_batch db kvs)) (batches ~size:1_000 n);
  let server = Server.start db in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  in
  let emit = table () in
  let leg depth conns =
    Gc.full_major ();
    let lats = Array.init conns (fun _ -> Array.make per 0.) in
    let client c () =
      let fd = connect () in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let lat = lats.(c) in
      let pending = Queue.create () in
      let recv_one () =
        let j, get, t0 = Queue.pop pending in
        (match Ipc.decode_response (Frame.read fd) with
         | Ipc.Error e -> failwith ("server error: " ^ e)
         | Ipc.Value (Some _) -> ()
         | _ when get -> failwith "a Get of a loaded key answered no value"
         | _ -> ());
        lat.(j) <- Runner.now () -. t0
      in
      for j = 0 to per - 1 do
        while Queue.length pending >= depth do recv_one () done;
        let get = j mod 8 <> 0 in
        let req =
          if not get then begin
            (* writes land on this connection's own slice of the keyspace *)
            let k = Keygen.key_of (((c * per) + j) mod n) in
            Ipc.Apply
              {
                token = Printf.sprintf "bench.%d.%d.%d.%d" depth conns c j;
                puts = [ (k, Keygen.value_of k) ];
                deletes = [];
              }
          end
          else Ipc.Get (Keygen.key_of (((c * 31) + (j * 7)) mod hot))
        in
        Queue.push (j, get, Runner.now ()) pending;
        Frame.write fd (Ipc.encode_request req)
      done;
      while not (Queue.is_empty pending) do recv_one () done
    in
    (* a client thread's exception would die with the thread: keep the
       first one and re-raise it once every client has joined *)
    let failed = Atomic.make None in
    let run c () =
      try client c () with e -> ignore (Atomic.compare_and_set failed None (Some e))
    in
    let (), wall =
      Runner.time (fun () ->
          List.iter Thread.join (List.init conns (fun c -> Thread.create (run c) ())))
    in
    Option.iter raise (Atomic.get failed);
    let equal = replays_serially db in
    (* a verifying session must still sync to the head and proof-check *)
    let verified =
      let s = Session.connect ~port () in
      Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
      Session.sync s;
      let k = Keygen.key_of 0 in
      ignore (Session.get_verified s k);
      ignore (Session.get_batch_verified s [ k; Keygen.key_of (hot - 1) ]);
      Session.digest s = Some (Db.digest db) && Session.failures s = 0
    in
    if not (equal && verified) then
      fail "server %d conns, depth %d: serial replay %b, verifying session %b" conns depth equal
        verified;
    emit
      ([ ("connections", int conns); ("pipeline_depth", int depth);
         ("reqs_kops", kops (float_of_int (conns * per) /. wall)) ]
       @ tail ~unit:ms (Array.concat (Array.to_list lats))
       @ [ ("digest_equals_serial_replay", bool equal); ("verified_session_ok", bool verified) ])
  in
  let rows = List.concat_map (fun depth -> List.map (leg depth) [ 1; 2; 4; 8 ]) [ 1; 32 ] in
  let st = Server.stats server in
  add_result "server"
    (J.Obj
       ([ ("records", int n); ("requests_per_connection", int per); ("hot_set", int hot);
          ("legs", J.Arr rows) ]
        @ record
          [
            ("served_requests", int st.Server.requests);
            ("served_bytes_in", int st.Server.bytes_in);
            ("served_bytes_out", int st.Server.bytes_out);
            ("malformed", int st.Server.malformed);
          ]));
  pr "(expected shape: unpipelined throughput is round-trip-bound and grows\n";
  pr " with connections; pipelining lifts a single connection several-fold\n";
  pr " by amortizing round trips, at higher per-request queueing latency;\n";
  pr " 'equal' and 'verified' must be yes everywhere — the TCP front-end\n";
  pr " must not change digests, and a verifying client must still be able\n";
  pr " to proof-check everything it reads)\n"

(* ---------- codec: buffer-layer allocation micro-benchmarks ---------- *)

(* The zero-copy spine against the legacy string paths (which the public
   API keeps), then the decode, WAL, cell-store, commit-path and checksum
   rates. Allocation is minor-heap words per op ([Gc.minor_words]; words,
   not bytes). With [--gate] a > 25% regression against the baseline in
   the results file fails the run. *)
let codec () =
  let module Wire = Spitz_storage.Wire in
  let module Kv = Spitz_adt.Kv_node in
  let module Hash = Spitz_crypto.Hash in
  (* snapshot the committed baseline before this run overwrites --out *)
  let baseline = if !gate then List.assoc_opt "codec" (read_results ()) else None in
  if !gate && baseline = None then fail "codec --gate: no committed codec baseline in %s" !out_file;
  let iters = max 10_000 !ops in
  title "Codec: buffer-layer allocations (%d ops/point)" iters;
  let measure f =
    f 0;
    (* warm-up: caches, lazy tables, buffer growth *)
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    let (), wall = Runner.time (fun () -> for i = 1 to iters do f i done) in
    let w1 = Gc.minor_words () in
    ((w1 -. w0) /. float_of_int iters, float_of_int iters /. wall)
  in
  (* Words [f ()] allocates, from a clean heap: minor-heap words, words
     allocated straight into the major heap (promotions excluded: any block
     over 256 words lands there), and minor words promoted (what the heap
     keeps); then the wall time. *)
  let heap_words f =
    Gc.full_major ();
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    let (), wall = Runner.time f in
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    let promoted = promoted1 -. promoted0 in
    (minor1 -. minor0, major1 -. major0 -. promoted, promoted, wall)
  in
  let emit = table () in
  let rows = ref [] in
  let row name cells = rows := (name, emit ~label:name cells) :: !rows in
  (* [gated]: the zero-copy path must allocate >= 30% less than the legacy one *)
  let compare_row ?(gated = false) name (legacy_w, legacy_thr) (new_w, new_thr) =
    let saving = if legacy_w > 0. then 1. -. (new_w /. legacy_w) else 0. in
    if gated && saving < 0.30 then fail "%s allocation saving %.1f%% < 30%%" name (100. *. saving);
    row name
      [
        ("legacy_words_per_op", num legacy_w);
        ("new_words_per_op", num new_w);
        ("legacy_kops", kops legacy_thr);
        ("new_kops", kops new_thr);
        ("saving", num saving);
      ]
  in
  let single_row name (w, thr) =
    row name [ ("words_per_op", num w); ("kops", kops thr); ("ns_per_op", num (1e9 /. thr)) ]
  in
  (* a rotation of realistic leaf nodes (~16 entries each) *)
  let nnodes = 64 in
  let nodes =
    Array.init nnodes (fun i ->
        Kv.Leaf
          (Array.init 16 (fun j ->
               let k = Keygen.key_of ((i * 16) + j) in
               (k, Keygen.value_of k))))
  in
  let node i = nodes.(i mod nnodes) in
  (* node identity: encode + hash *)
  let buf = Wire.writer ~size:1024 () in
  compare_row ~gated:true "encode+identity"
    (measure (fun i -> ignore (Hash.of_string (Kv.encode (node i)))))
    (measure (fun i ->
         Wire.clear buf;
         Kv.encode_into buf (node i);
         ignore (Wire.digest buf)));
  (* dedup-hit store: the shared-subtree common case *)
  let store = Os.create () in
  Array.iter (fun n -> ignore (Kv.save store n)) nodes;
  compare_row "store put (dedup hit)"
    (measure (fun i -> ignore (Os.put store (Kv.encode (node i)))))
    (measure (fun i ->
         Wire.clear buf;
         Kv.encode_into buf (node i);
         ignore (Os.put_writer store buf)));
  (* decode throughput (string and slice windows decode identically) *)
  let encoded = Array.map Kv.encode nodes in
  single_row "decode node" (measure (fun i -> ignore (Kv.decode encoded.(i mod nnodes))));
  (* served frame: encode a response and put it on the wire *)
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close devnull) @@ fun () ->
  let resp =
    Ipc.Entries (List.init 8 (fun j -> (Keygen.key_of j, Keygen.value_of (Keygen.key_of j))))
  in
  let scratch = Frame.scratch () in
  let out = Wire.writer ~size:1024 () in
  compare_row ~gated:true "serve frame"
    (measure (fun _ -> Frame.write devnull (Ipc.encode_response resp)))
    (measure (fun _ ->
         Wire.clear out;
         Ipc.write_response out resp;
         Frame.write_slices ~scratch devnull [ Wire.view out ]));
  (* a served verified read without the socket: pin the head block, answer
     a SnapGet with its proof straight into the reused writer (every key's
     proof cached, as on a hot read path), frame it. A proof string would
     be counted in "major" *)
  let served = Db.open_db () in
  List.iter (fun kvs -> ignore (Db.put_batch served kvs)) (batches ~size:512 16_384);
  let head = Db.L.height (Db.ledger served) - 1 in
  let hot = Array.init 1024 (fun i -> Keygen.key_of (i * 16)) in
  let serve_read i =
    let snap = Option.get (Db.snapshot ~height:head served) in
    Server.respond out (fun out ->
        let value, proof = Db.Snapshot.get_verified snap hot.(i land 1023) in
        Ipc.write_answer ~read:Db.L.write_read_proof ~batch:Db.L.write_batch_proof out
          (Ipc.ValueProof (value, Some proof)));
    Frame.write_slices ~scratch devnull [ Wire.view out ]
  in
  Array.iteri (fun i _ -> serve_read i) hot;
  let minor, major, _, wall = heap_words (fun () -> for i = 1 to iters do serve_read i done) in
  let per x = x /. float_of_int iters in
  let major = per major in
  if major > 16. then fail "serve verified read: %.1f words/op straight into the major heap" major;
  row "serve verified read"
    [
      ("words_per_op", num (per minor));
      ("major_words_per_op", num major);
      ("kops", kops (float_of_int iters /. wall));
      ("ns_per_op", num (wall *. 1e9 /. float_of_int iters));
    ];
  (* WAL append: frame + write from the batch writer, no fsync *)
  let wal_dir = temp_dir () in
  let wal = Wal.open_log ~sync:Wal.Never (Filename.concat wal_dir "wal") in
  single_row "wal append" (measure (fun _ -> Wal.append wal encoded.(0)));
  Wal.close wal;
  rm_rf wal_dir;
  (* a value hash in hex, then the cell-store write path: one cell write —
     value hash, dedup-hit value put, cell-table insert *)
  let digest = Hash.of_string "hex" in
  single_row "hex 32 B" (measure (fun _ -> ignore (Hash.to_hex digest)));
  let cells = Spitz.Cell_store.create () in
  let pks = Array.init 1024 Keygen.key_of in
  let values = Array.init 64 (fun i -> Keygen.value_of pks.(i)) in
  single_row "cell write"
    (measure (fun i ->
         ignore
           (Spitz.Cell_store.write_cell cells ~column:"v" ~pk:pks.(i land 1023) ~ts:i
              values.(i land 63))));
  (* the commit path at the served write shape: 16,384 keys loaded in
     512-key batches, then 16-key batches of uniform keys. Each op is one
     batch; its median time is reported in µs. The durable row logs under
     [Never], so it times the record's encode and write, not an fsync;
     "major" counts words allocated straight into the major heap
     (promotions excluded), which a copy of a 19 KB record would be;
     "promoted" counts minor-heap words that survived into the major heap,
     which is what a cache or index holding on to them costs. *)
  let load = batches ~size:512 16_384 in
  let rng = Random.State.make [| 42 |] in
  let commits = served_commits (fun () -> Random.State.int rng 16_384) in
  let commit_row name f =
    let lats = Array.make (Array.length commits) 0. in
    let minor, major, promoted, _ =
      heap_words (fun () ->
          Array.iteri
            (fun b kvs ->
               let t0 = Runner.now () in
               f kvs;
               lats.(b) <- Runner.now () -. t0)
            commits)
    in
    let per x = num (x /. float_of_int (Array.length commits)) in
    row name
      [
        ("words_per_op", per minor);
        ("major_words_per_op", per major);
        ("promoted_words_per_op", per promoted);
        ("us_p50", num (percentile lats 0.5 *. 1e6));
      ]
  in
  let tree = ref (List.fold_left Mbp.insert_batch (Mbp.create (Os.create ())) load) in
  commit_row "insert_batch 16 @16k" (fun kvs -> tree := Mbp.insert_batch !tree kvs);
  with_durable ~sync:Wal.Never (fun _ d ->
      let db = Db.durable_db d in
      List.iter (fun kvs -> ignore (Db.put_batch db kvs)) load;
      commit_row "durable commit 16" (fun kvs -> ignore (Db.put_batch db kvs)));
  (* checksum kernels: SHA-256 bulk rate and per-node cost (an interior
     Merkle node hashes 65 bytes: tag + two digests), CRC-32 over a frame *)
  let mib = Bytes.make (1 lsl 20) 'x' in
  let kernel_row name ~bytes ~reps f =
    f ();
    let (), wall = Runner.time (fun () -> for _ = 1 to reps do f () done) in
    row name
      [
        ("mb_s", num (float_of_int bytes *. float_of_int reps /. wall /. 1e6));
        ("ns_per_op", num (wall *. 1e9 /. float_of_int reps));
      ]
  in
  kernel_row "sha256 1MiB" ~bytes:(Bytes.length mib) ~reps:64 (fun () ->
      ignore (Spitz_crypto.Sha256.digest_bytes mib 0 (Bytes.length mib)));
  let a = Hash.of_string "left" and b = Hash.of_string "right" in
  kernel_row "sha256 node (65 B)" ~bytes:65 ~reps:iters (fun () -> ignore (Hash.node a b));
  kernel_row "crc32 2KiB frame" ~bytes:2048 ~reps:iters (fun () ->
      ignore (Spitz_storage.Crc32.update_bytes 0l mib 0 2048));
  let rows = List.rev !rows in
  (* regression gate against the committed baseline *)
  Option.iter
    (fun base ->
       let field path name o =
         Option.bind (J.member path o) (fun r -> Option.bind (J.member name r) J.to_float)
       in
       List.iter
         (fun (path, name) ->
            match (field path name base, field path name (J.Obj rows)) with
            | Some was, Some now when was > 0. && now > was *. 1.25 ->
              fail "codec gate: %s %s regressed %.1f -> %.1f words/op (> +25%%)" path name was now
            | _ -> ())
         [ ("encode+identity", "new_words_per_op"); ("store put (dedup hit)", "new_words_per_op");
           ("serve frame", "new_words_per_op"); ("serve verified read", "words_per_op");
           ("decode node", "words_per_op");
           ("wal append", "words_per_op"); ("cell write", "words_per_op");
           ("insert_batch 16 @16k", "words_per_op"); ("durable commit 16", "words_per_op") ];
       pr "gate: checked against committed baseline (threshold +25%%)\n")
    baseline;
  add_result "codec" (J.Obj rows);
  pr "(expected shape: the new paths allocate >= 30%% less on encode+identity\n";
  pr " and serve-frame — no contents string, no header concat — and a dedup-\n";
  pr " hit store allocates no copy of the encoding at all)\n"

(* ---------- adversarial fuzz loop (nightly budget) ---------- *)

(* Deadline-bounded run of the lib/check adversarial fuzzer: mutated proofs,
   receipts, and WAL files against every verifier, plus mutated protocol
   frames replayed against a live loopback server. Each round's seed is
   printed, so any failure replays deterministically with
   [Spitz_check.Fuzz.fuzz_all ~seed:<printed> ()] — or by re-running this
   command with [--fuzz-seed]. Fails on any accepted mutant or foreign
   exception. *)
let fuzz () =
  let module F = Spitz_check.Fuzz in
  let seed =
    if !fuzz_seed <> 0 then !fuzz_seed
    else int_of_float (Unix.gettimeofday () *. 1000.) land 0x3FFFFFFF
  in
  title "Adversarial proof/WAL/frame fuzz: deadline %.0fs, master seed %d" !deadline seed;
  pr "   (replay one round: Spitz_check.Fuzz.fuzz_all ~seed:<round seed> ())\n%!";
  let report =
    F.run_deadline ~deadline:!deadline ~seed (fun ~round ~seed r ->
        pr "round %d (seed %d): %s\n%!" round seed (F.pp_report r))
  in
  add_result "fuzz"
    (J.Obj
       (record
          [
            ("master_seed", int seed);
            ("deadline_s", num !deadline);
            ("total", int report.F.total);
            ("rejected_decode", int report.F.rejected_decode);
            ("rejected_verify", int report.F.rejected_verify);
            ("benign", int report.F.benign);
            ("accepted", int (List.length report.F.accepted));
            ("foreign", int (List.length report.F.foreign));
            ("ok", bool (F.ok report));
          ]));
  if not (F.ok report) then
    fail "fuzz — replay with the last printed round seed\n%s" (F.pp_report report)
