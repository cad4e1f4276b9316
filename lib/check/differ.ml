module K = Spitz_workload.Keygen
module Db = Spitz.Db
module Ledger = Spitz_ledger.Ledger
module Model = Trace.Model

exception Divergence of string

let fail fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

let opt_str = function None -> "None" | Some v -> Printf.sprintf "Some %S" v

let entries_str entries =
  "["
  ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "(%S,%S)" k v) entries)
  ^ "]"

let writes_of ws =
  List.map
    (function
      | Trace.W (k, v) -> Ledger.Put (Trace.key k, Trace.value k v)
      | Trace.D k -> Ledger.Delete (Trace.key k))
    ws

(* Keys worth observing: everything the trace ever touched, plus two indices
   it never can (absence must be provable too). *)
let probe_keys (tr : Trace.trace) model =
  Model.keys_touched model @ [ tr.keyspace; tr.keyspace + 7 ]

let whole_keyspace (tr : Trace.trace) =
  K.range_bounds ~lo:0 ~hi:(tr.keyspace - 1)

(* --- Spitz vs model --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "spitz_check" ".dur" in
  Sys.remove dir;
  let rec rm_rf p =
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* A database on disk, opened with no fsyncs: the checks are about what a
   reopen rebuilds, not about what a crash keeps. *)
let open_temp dir = Db.open_durable ~sync:Spitz_storage.Wal.Never dir

let check_spitz (tr : Trace.trace) =
  with_temp_dir @@ fun dir ->
  let d = ref (open_temp dir) in
  Fun.protect ~finally:(fun () -> Db.close_durable !d) @@ fun () ->
  let model = ref Model.empty in
  List.iter
    (fun step ->
       match step with
       | Trace.Commit ws ->
         let height = Db.commit (Db.durable_db !d) (writes_of ws) in
         model := Model.commit !model ws;
         if height <> Model.height !model - 1 then
           fail "commit height %d, expected %d" height (Model.height !model - 1);
         (* per-commit spot check: the last-written key reads back per model *)
         (match List.rev ws with
          | last :: _ ->
            let k = match last with Trace.W (k, _) | Trace.D k -> k in
            let got = Db.get (Db.durable_db !d) (Trace.key k) in
            let expect = Model.get !model k in
            if got <> expect then
              fail "after commit %d: get %d = %s, model %s" height k (opt_str got)
                (opt_str expect)
          | [] -> ())
       | Trace.Reopen ->
         Db.checkpoint !d;
         Db.close_durable !d;
         d := open_temp dir)
    tr.steps;
  let db = Db.durable_db !d and model = !model in
  let digest = Db.digest db in
  let committed = Model.height model > 0 in
  if digest.Spitz_ledger.Journal.size <> Model.height model then
    fail "digest size %d, model height %d" digest.Spitz_ledger.Journal.size (Model.height model);
  (* point reads, proofs, wire round-trips, wrong-value soundness *)
  List.iter
    (fun k ->
       let key = Trace.key k in
       let expect = Model.get model k in
       let got = Db.get db key in
       if got <> expect then fail "get %d = %s, model %s" k (opt_str got) (opt_str expect);
       let v, proof = Db.get_verified db key in
       if v <> expect then fail "get_verified %d = %s, model %s" k (opt_str v) (opt_str expect);
       match proof with
       | None -> if committed then fail "no read proof for key %d on a non-empty database" k
       | Some p ->
         if not (Db.verify_read ~digest ~key ~value:v p) then
           fail "read proof for key %d does not verify" k;
         let p' = Db.L.decode_read_proof (Db.L.encode_read_proof p) in
         if not (Db.verify_read ~digest ~key ~value:v p') then
           fail "read proof for key %d does not survive a wire round-trip" k;
         let wrong = Some (Trace.value k 999_999_999) in
         if wrong <> v && Db.verify_read ~digest ~key ~value:wrong p then
           fail "read proof for key %d verified a value never written" k)
    (probe_keys tr model);
  (* range scans over the whole keyspace *)
  let lo, hi = whole_keyspace tr in
  let expect = Model.entries model in
  let got = Db.range db ~lo ~hi in
  if got <> expect then fail "range = %s, model %s" (entries_str got) (entries_str expect);
  let entries, rproof = Db.range_verified db ~lo ~hi in
  if entries <> expect then
    fail "range_verified = %s, model %s" (entries_str entries) (entries_str expect);
  (match rproof with
   | None -> if committed then fail "no range proof on a non-empty database"
   | Some p ->
     if not (Db.verify_range ~digest ~lo ~hi ~entries p) then fail "range proof does not verify";
     (match entries with
      | _ :: rest when Db.verify_range ~digest ~lo ~hi ~entries:rest p ->
        fail "range proof verified with an entry omitted"
      | _ -> ()));
  (* batched reads under one proof *)
  let keys = List.map Trace.key (probe_keys tr model) in
  let values, bproof = Db.get_batch_verified db keys in
  let expected_values = List.map (Model.get model) (probe_keys tr model) in
  if values <> expected_values then fail "get_batch_verified values diverge from model";
  (match bproof with
   | None -> if committed then fail "no batch proof on a non-empty database"
   | Some p ->
     let items = List.combine keys values in
     if not (Db.verify_batch_read ~digest ~items p) then fail "batch proof does not verify";
     let p' = Db.L.decode_batch_proof (Db.L.encode_batch_proof p) in
     if not (Db.verify_batch_read ~digest ~items p') then
       fail "batch proof does not survive a wire round-trip");
  (* historical reads at every committed height *)
  for h = 0 to Model.height model - 1 do
    List.iter
      (fun k ->
         let got = Db.get_at db ~height:h (Trace.key k) in
         let expect = Model.get_at model ~height:h k in
         if got <> expect then
           fail "get_at height %d key %d = %s, model %s" h k (opt_str got) (opt_str expect))
      (Model.keys_touched model)
  done;
  (* write receipts of the newest block *)
  if committed then begin
    let height = Model.height model - 1 in
    let receipts = Db.L.write_receipts (Db.ledger db) ~height in
    if receipts = [] then fail "no write receipts for height %d" height;
    List.iter
      (fun r ->
         if not (Db.verify_write ~digest r) then fail "write receipt does not verify";
         let r' = Db.L.decode_receipt (Db.L.encode_receipt r) in
         if not (Db.verify_write ~digest r') then
           fail "write receipt does not survive a wire round-trip")
      receipts
  end;
  if not (Db.audit db) then fail "chain audit failed"

(* --- all systems vs model --- *)

let check_cross (tr : Trace.trace) =
  let has_deletes =
    List.exists
      (function
        | Trace.Commit ws -> List.exists (function Trace.D _ -> true | Trace.W _ -> false) ws
        | Trace.Reopen -> false)
      tr.steps
  in
  let db = Db.open_db () in
  let kv = Spitz_kvstore.Kv.create () in
  let combined = Spitz_nonintrusive.Combined.create () in
  (* the QLDB-like baseline has no delete: it only joins delete-free traces *)
  let baseline = if has_deletes then None else Some (Spitz_baseline.Baseline_db.create ()) in
  let model = ref Model.empty in
  List.iter
    (function
      | Trace.Reopen -> () (* persistence is check_spitz's concern *)
      | Trace.Commit ws ->
        ignore (Db.commit db (writes_of ws));
        List.iter
          (fun w ->
             match w with
             | Trace.W (k, v) ->
               ignore (Spitz_kvstore.Kv.put kv (Trace.key k) (Trace.value k v));
               Spitz_nonintrusive.Combined.put combined (Trace.key k) (Trace.value k v)
             | Trace.D k ->
               ignore (Spitz_kvstore.Kv.delete kv (Trace.key k));
               Spitz_nonintrusive.Combined.delete combined (Trace.key k))
          ws;
        (match baseline with
         | Some b ->
           let kvs =
             List.filter_map
               (function Trace.W (k, v) -> Some (Trace.key k, Trace.value k v) | Trace.D _ -> None)
               ws
           in
           if kvs <> [] then ignore (Spitz_baseline.Baseline_db.put_batch b kvs)
         | None -> ());
        model := Model.commit !model ws)
    tr.steps;
  let model = !model in
  let spitz_digest = Db.digest db in
  let combined_digest = Spitz_nonintrusive.Combined.digest combined in
  let baseline_digest = Option.map Spitz_baseline.Baseline_db.digest baseline in
  List.iter
    (fun k ->
       let key = Trace.key k in
       let expect = Model.get model k in
       let check name got =
         if got <> expect then
           fail "%s: get %d = %s, model %s" name k (opt_str got) (opt_str expect)
       in
       check "spitz" (Db.get db key);
       check "kv" (Spitz_kvstore.Kv.get kv key);
       check "combined" (Spitz_nonintrusive.Combined.get combined key);
       (match baseline with
        | Some b -> check "baseline" (Spitz_baseline.Baseline_db.get b key)
        | None -> ());
       (* each system's proof verifies under its own digest *)
       let v, proof = Spitz_nonintrusive.Combined.get_verified combined key in
       if v <> expect then fail "combined: get_verified %d diverges" k;
       (match proof with
        | Some p ->
          if not (Spitz_nonintrusive.Combined.verify_read ~digest:combined_digest ~key ~value:v p)
          then fail "combined: read proof for key %d does not verify" k
        | None -> if Model.height model > 0 then fail "combined: no proof for key %d" k);
       match (baseline, baseline_digest, expect) with
       | Some b, Some digest, Some value ->
         (match Spitz_baseline.Baseline_db.prove b key with
          | Some p ->
            if not (Spitz_baseline.Baseline_db.verify ~digest ~key ~value p) then
              fail "baseline: proof for key %d does not verify" k;
            let p' =
              Spitz_baseline.Baseline_db.decode_proof (Spitz_baseline.Baseline_db.encode_proof p)
            in
            if not (Spitz_baseline.Baseline_db.verify ~digest ~key ~value p') then
              fail "baseline: proof for key %d does not survive a wire round-trip" k
          | None -> fail "baseline: no proof for present key %d" k)
       | _ -> ())
    (probe_keys tr model);
  let lo, hi = whole_keyspace tr in
  let expect = Model.entries model in
  let check name got =
    if got <> expect then
      fail "%s: range = %s, model %s" name (entries_str got) (entries_str expect)
  in
  check "spitz" (Db.range db ~lo ~hi);
  check "kv" (Spitz_kvstore.Kv.range kv ~lo ~hi);
  check "combined" (Spitz_nonintrusive.Combined.range combined ~lo ~hi);
  (match baseline with
   | Some b -> check "baseline" (Spitz_baseline.Baseline_db.range b ~lo ~hi)
   | None -> ());
  if Spitz_kvstore.Kv.cardinal kv <> List.length expect then
    fail "kv: cardinal %d, model %d" (Spitz_kvstore.Kv.cardinal kv) (List.length expect);
  ignore spitz_digest

(* --- every SIRI implementation vs model (insert-only view) --- *)

let siri_impls : (module Spitz_adt.Siri.S) list =
  [
    (module Spitz_adt.Merkle_bptree);
    (module Spitz_adt.Pos_tree);
    (module Spitz_adt.Mpt);
    (module Spitz_adt.Mbt);
  ]

let check_one_siri (module S : Spitz_adt.Siri.S) (tr : Trace.trace) =
  let store = Spitz_storage.Object_store.create () in
  let t = ref (S.create store) in
  let model = Hashtbl.create 64 in
  List.iter
    (function
      | Trace.Reopen -> ()
      | Trace.Commit ws ->
        List.iter
          (function
            | Trace.W (k, v) ->
              t := S.insert !t (Trace.key k) (Trace.value k v);
              Hashtbl.replace model k (Trace.value k v)
            | Trace.D _ -> () (* raw SIRI indexes carry no tombstones *))
          ws)
    tr.steps;
  let t = !t in
  let digest = S.root_digest t in
  let keys = probe_keys tr (Trace.apply_model tr) in
  let items =
    List.map
      (fun k ->
         let key = Trace.key k in
         let expect = Hashtbl.find_opt model k in
         let got = S.get t key in
         if got <> expect then
           fail "%s: get %d = %s, model %s" S.name k (opt_str got) (opt_str expect);
         let v, proof = S.get_with_proof t key in
         if v <> expect then fail "%s: get_with_proof %d diverges" S.name k;
         if not (S.verify_get ~digest ~key ~value:v proof) then
           fail "%s: proof for key %d does not verify" S.name k;
         let wrong = Some (Trace.value k 999_999_999) in
         if wrong <> v && S.verify_get ~digest ~key ~value:wrong proof then
           fail "%s: proof for key %d verified a value never written" S.name k;
         (key, v))
      keys
  in
  (* one batched proof covers every probe *)
  let values, bproof = S.prove_batch t (List.map fst items) in
  if values <> List.map snd items then fail "%s: prove_batch values diverge" S.name;
  if not (S.verify_get_batch ~digest ~items bproof) then
    fail "%s: batched proof does not verify" S.name;
  (* full-keyspace range with proof *)
  let lo, hi = whole_keyspace tr in
  let expect_entries =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (Trace.key k, v) :: acc) model [])
  in
  let entries, rproof = S.range_with_proof t ~lo ~hi in
  if entries <> expect_entries then
    fail "%s: range = %s, model %s" S.name (entries_str entries) (entries_str expect_entries);
  if not (S.verify_range ~digest ~lo ~hi ~entries rproof) then
    fail "%s: range proof does not verify" S.name;
  (* reopening from the root digest reproduces the same index *)
  if Hashtbl.length model > 0 then begin
    let reopened = S.at_root store digest ~count:(S.cardinal t) in
    if not (Spitz_crypto.Hash.equal (S.root_digest reopened) digest) then
      fail "%s: at_root changes the digest" S.name;
    List.iter
      (fun (key, v) ->
         if S.get reopened key <> v then fail "%s: at_root loses key %S" S.name key)
      items
  end

(* MBT under a forced bucket count — tiny shapes maximize collisions. *)
let mbt_sized buckets : (module Spitz_adt.Siri.S) =
  (module struct
    include Spitz_adt.Mbt

    let name = Printf.sprintf "mbt[%d]" buckets
    let create store = Spitz_adt.Mbt.create_sized ~buckets store
  end)

let check_siri (tr : Trace.trace) =
  List.iter (fun impl -> check_one_siri impl tr) siri_impls;
  List.iter (fun buckets -> check_one_siri (mbt_sized buckets) tr) [ 2; 4; 64 ]

(* --- concurrent commit serializability --- *)

(* N domains race the thread-safe [Db.commit] front-end with disjoint
   round-robin slices of the trace's batches. The result must be *some*
   serial permutation of those batches. Each block carries a sentinel
   statement naming its (committer, sequence) pair, so the journal itself
   reveals the committed order; the checks are then:

   1. the committed order is a valid merge — every committer's batches
      appear in its own submission order;
   2. serially replaying the batches in the committed order on a fresh
      database yields a bit-identical digest, and the concurrent database
      agrees with the model of that order on reads, proofs, and audit;
   3. on small traces, brute force: the concurrent digest equals the serial
      digest of at least one enumeration of all batch permutations (the
      PR-4 serializability-by-permutation style, now at the ledger). *)

let sentinel c j = Printf.sprintf "cc:%d:%d" c j

let parse_sentinel s =
  try Scanf.sscanf s "cc:%d:%d" (fun c j -> (c, j))
  with Scanf.Scan_failure _ | End_of_file | Failure _ ->
    fail "block statement %S is not a committer sentinel" s

let check_concurrent_commits (tr : Trace.trace) =
  let batches =
    List.filter_map (function Trace.Commit ws -> Some ws | Trace.Reopen -> None) tr.steps
  in
  if batches <> [] then begin
    let ncommitters = min 4 (List.length batches) in
    let slices =
      List.init ncommitters (fun c ->
          List.filteri (fun i _ -> i mod ncommitters = c) batches)
    in
    let batch_of (c, j) = List.nth (List.nth slices c) j in
    let db = Db.open_db () in
    let domains =
      List.mapi
        (fun c slice ->
           Domain.spawn (fun () ->
               List.iteri
                 (fun j ws ->
                    ignore (Db.commit db ~statements:[ sentinel c j ] (writes_of ws)))
                 slice))
        slices
    in
    List.iter Domain.join domains;
    let digest = Db.digest db in
    let ledger = Db.ledger db in
    let height = Db.L.height ledger in
    if height <> List.length batches then
      fail "concurrent run: %d blocks for %d batches" height (List.length batches);
    (* recover the committed order from the blocks' sentinel statements *)
    let order =
      List.init height (fun h ->
          match
            (Spitz_ledger.Journal.block (Db.L.journal ledger) h).Spitz_ledger.Block.statements
          with
          | [ s ] -> parse_sentinel s
          | ss -> fail "block %d carries %d statements, expected 1" h (List.length ss))
    in
    (* 1. a valid merge of the per-committer sequences *)
    let next = Array.make ncommitters 0 in
    List.iter
      (fun (c, j) ->
         if c < 0 || c >= ncommitters then fail "unknown committer %d" c;
         if j <> next.(c) then
           fail "committer %d: batch %d committed before batch %d" c j next.(c);
         next.(c) <- j + 1)
      order;
    (* 2. the committed order, replayed serially, is bit-identical *)
    let replay_order order =
      let serial = Db.open_db () in
      List.iter
        (fun (c, j) ->
           ignore (Db.commit serial ~statements:[ sentinel c j ] (writes_of (batch_of (c, j)))))
        order;
      Db.digest serial
    in
    let serial_digest = replay_order order in
    if serial_digest <> digest then
      fail "concurrent digest %s/%d differs from its own serial order %s/%d"
        (Spitz_crypto.Hash.to_hex digest.Spitz_ledger.Journal.root)
        digest.Spitz_ledger.Journal.size
        (Spitz_crypto.Hash.to_hex serial_digest.Spitz_ledger.Journal.root)
        serial_digest.Spitz_ledger.Journal.size;
    (* reads, proofs and audit agree with the model of the committed order *)
    let model =
      List.fold_left (fun m cj -> Model.commit m (batch_of cj)) Model.empty order
    in
    List.iter
      (fun k ->
         let key = Trace.key k in
         let expect = Model.get model k in
         let v, proof = Db.get_verified db key in
         if v <> expect then
           fail "concurrent run: get %d = %s, model of committed order %s" k (opt_str v)
             (opt_str expect);
         match proof with
         | None -> fail "concurrent run: no read proof for key %d" k
         | Some p ->
           if not (Db.verify_read ~digest ~key ~value:v p) then
             fail "concurrent run: read proof for key %d does not verify" k)
      (probe_keys tr model);
    if not (Db.audit db) then fail "concurrent run: chain audit failed";
    (* 3. brute force on small traces: SOME permutation matches (and since
       digests chain over block contents, only order-equivalent ones do) *)
    if List.length batches <= 4 then begin
      let rec permutations = function
        | [] -> [ [] ]
        | l ->
          List.concat_map
            (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
            l
      in
      let all = permutations order in
      if not (List.exists (fun o -> replay_order o = digest) all) then
        fail "no serial permutation of %d batches reproduces the concurrent digest"
          (List.length batches)
    end
  end

(* Concurrent readers against a commit storm: every verified snapshot read
   must be internally consistent (digest size = pinned height + 1 — the torn
   head regression), its proof must verify against the snapshot's own digest,
   and — checked after the storm settles — the value observed at the pinned
   height must equal the committed prefix state [Db.get_at] reports for that
   height. Readers also exercise the head path ([Db.get_verified]) and check
   its proof against the proof's own anchor digest. *)
let check_concurrent_reads (tr : Trace.trace) =
  let batches =
    List.filter_map (function Trace.Commit ws -> Some ws | Trace.Reopen -> None) tr.steps
  in
  match batches with
  | [] -> ()
  | first :: rest ->
    let db = Db.open_db () in
    (* seed block: a snapshot exists before the storm starts *)
    ignore (Db.commit db (writes_of first));
    let probe =
      match
        Model.keys_touched (List.fold_left Model.commit Model.empty batches)
      with
      | [] -> [ Trace.key 0 ]
      | ks -> List.map Trace.key ks
    in
    let nprobe = List.length probe in
    let ncommitters = 2 in
    let slices =
      List.init ncommitters (fun c ->
          List.filteri (fun i _ -> i mod ncommitters = c) rest)
    in
    let live = Atomic.make ncommitters in
    let committers =
      List.map
        (fun slice ->
           Domain.spawn (fun () ->
               List.iter (fun ws -> ignore (Db.commit db (writes_of ws))) slice;
               Atomic.decr live))
        slices
    in
    let reader () =
      let obs = ref [] in
      let i = ref 0 in
      (* keep reading as long as any committer runs; bounded so a trace with
         no remaining batches still terminates promptly *)
      while Atomic.get live > 0 || !i < 50 do
        if !i > 5000 then fail "reader starved: committers never finished";
        (match Db.snapshot db with
         | None -> fail "no snapshot after the seed commit"
         | Some s ->
           let h = Db.Snapshot.height s in
           let d = Db.Snapshot.digest s in
           if d.Spitz_ledger.Journal.size <> h + 1 then
             fail "torn snapshot: digest size %d at pinned height %d"
               d.Spitz_ledger.Journal.size h;
           let key = List.nth probe (!i mod nprobe) in
           let v, p = Db.Snapshot.get_verified s key in
           if not (Db.verify_read ~digest:d ~key ~value:v p) then
             fail "snapshot proof for %S does not verify at height %d" key h;
           obs := (h, key, v) :: !obs;
           (* head path: the proof must verify against its own anchor *)
           let hv, hp = Db.get_verified db key in
           (match hp with
            | None -> fail "head read of %S returned no proof" key
            | Some hp ->
              if not
                   (Db.verify_read ~digest:hp.Db.L.rp_digest ~key ~value:hv hp)
              then fail "head proof for %S does not verify" key));
        incr i
      done;
      !obs
    in
    let readers = List.init 2 (fun _ -> Domain.spawn reader) in
    let observations = List.concat_map Domain.join readers in
    List.iter Domain.join committers;
    (* every observation matches the committed prefix state at its height *)
    List.iter
      (fun (h, key, v) ->
         let expect = Db.get_at db ~height:h key in
         if v <> expect then
           fail "reader saw %s for %S at height %d; committed state says %s"
             (opt_str v) key h (opt_str expect))
      observations;
    if Db.L.height (Db.ledger db) <> List.length batches
    then fail "commit storm lost blocks"

(* Commit storm against a *durable* database while checkpoints race it.
   Checkpoints are non-blocking (the commit lock is held only to pin the
   journal and rotate the log), so committers, a manual-checkpoint loop, an
   automatic background checkpointer, and snapshot readers all run at once.
   Afterwards: the committed order recovered from the sentinels, replayed
   serially, must reproduce the digest bit-identically; the live audit must
   pass; and a reopen from disk — whatever mix of snapshot generation and
   live log segments the storm left behind — must recover the identical
   digest and audit too. *)
let check_checkpoint_storm (tr : Trace.trace) =
  let batches =
    List.filter_map (function Trace.Commit ws -> Some ws | Trace.Reopen -> None) tr.steps
  in
  if batches <> [] then begin
    with_temp_dir @@ fun dir ->
    let d =
      Db.open_durable
        ~sync:(Spitz_storage.Wal.Group { max_batch = 8; max_delay_us = 100 })
        dir
    in
    let db = Db.durable_db d in
    (* the background checkpointer joins the race as well *)
    Db.set_checkpoint_policy d (Db.Every_n_records 3);
    let ncommitters = min 3 (List.length batches) in
    let slices =
      List.init ncommitters (fun c ->
          List.filteri (fun i _ -> i mod ncommitters = c) batches)
    in
    let batch_of (c, j) = List.nth (List.nth slices c) j in
    let live = Atomic.make ncommitters in
    (* start barrier: no committer runs before the checkpointer does, so
       committers that finish fast cannot leave it with nothing to race *)
    let racing = Atomic.make false in
    let committers =
      List.mapi
        (fun c slice ->
           Domain.spawn (fun () ->
               while not (Atomic.get racing) do Domain.cpu_relax () done;
               List.iteri
                 (fun j ws ->
                    ignore (Db.commit db ~statements:[ sentinel c j ] (writes_of ws)))
                 slice;
               Atomic.decr live))
        slices
    in
    let checkpointer =
      Domain.spawn (fun () ->
          Atomic.set racing true;
          (* at least one checkpoint, however the race is scheduled *)
          Db.checkpoint d;
          while Atomic.get live > 0 do
            Db.checkpoint d
          done)
    in
    let reader =
      Domain.spawn (fun () ->
          let i = ref 0 in
          (* a wall-clock guard against committers that never finish: an
             iteration count would tie it to how much faster a verified
             read is than a fsynced commit *)
          let t0 = Unix.gettimeofday () in
          while Atomic.get live > 0 || !i < 20 do
            if Unix.gettimeofday () -. t0 > 60. then
              fail "reader starved: committers never finished";
            (match Db.snapshot db with
             | None -> ()
             | Some s ->
               let h = Db.Snapshot.height s in
               let dg = Db.Snapshot.digest s in
               if dg.Spitz_ledger.Journal.size <> h + 1 then
                 fail "torn snapshot during checkpoint storm: size %d at height %d"
                   dg.Spitz_ledger.Journal.size h;
               let key = Trace.key (!i mod max 1 tr.keyspace) in
               let v, p = Db.Snapshot.get_verified s key in
               if not (Db.verify_read ~digest:dg ~key ~value:v p) then
                 fail "snapshot proof for %S does not verify mid-checkpoint" key);
            incr i
          done)
    in
    List.iter Domain.join committers;
    Domain.join checkpointer;
    Domain.join reader;
    Db.set_checkpoint_policy d Db.Manual;
    let digest = Db.digest db in
    let ledger = Db.ledger db in
    let height = Db.L.height ledger in
    if height <> List.length batches then
      fail "checkpoint storm: %d blocks for %d batches" height (List.length batches);
    let order =
      List.init height (fun h ->
          match
            (Spitz_ledger.Journal.block (Db.L.journal ledger) h).Spitz_ledger.Block.statements
          with
          | [ s ] -> parse_sentinel s
          | ss -> fail "block %d carries %d statements, expected 1" h (List.length ss))
    in
    (* the committed order, replayed serially in memory, is bit-identical *)
    let serial = Db.open_db () in
    List.iter
      (fun (c, j) ->
         ignore (Db.commit serial ~statements:[ sentinel c j ] (writes_of (batch_of (c, j)))))
      order;
    if Db.digest serial <> digest then
      fail "checkpoint storm digest differs from its own serial order";
    if not (Db.audit db) then fail "checkpoint storm: live chain audit failed";
    let stats = Db.checkpoint_stats d in
    if stats.Db.checkpoints < 1 then fail "checkpoint storm ran no checkpoints";
    if stats.Db.failures > 0 then
      fail "checkpoint storm: %d checkpoint failures (%s)" stats.Db.failures
        (Option.value ~default:"?" stats.Db.last_error);
    Db.close_durable d;
    (* recovery from whatever snapshot/segment mix the storm left behind *)
    let d' = Db.open_durable dir in
    let db' = Db.durable_db d' in
    Fun.protect ~finally:(fun () -> Db.close_durable d')
    @@ fun () ->
    if not
         (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
            (Db.digest db').Spitz_ledger.Journal.root)
       || (Db.digest db').Spitz_ledger.Journal.size <> digest.Spitz_ledger.Journal.size
    then fail "checkpoint storm: reopen does not reproduce the digest";
    if not (Db.audit db') then fail "checkpoint storm: recovered chain audit failed"
  end

(* --- compacted checkpoints: a reopen reads like the live run ---

   The trace runs on a durable database, each [Reopen] step a checkpoint
   instead (every other one right after an empty block), so checkpoints
   land at random heights. At the end a session pins the head, one more
   block commits behind its back, and the run stops by a close, a crash
   (the handle abandoned), or a crash inside one more checkpoint after its
   mark — which one the trace's length picks. The reopened database must
   match the live run: digest, journal, every cell read and history, and
   verified reads at every height from its horizon on. Below the horizon a
   pinned read raises [Below_horizon], and the session, still pinned at
   the old head, re-anchors through it. *)
let check_compacted_reopen (tr : Trace.trace) =
  let module Server = Spitz_server.Server in
  let module Session = Spitz_server.Session in
  with_temp_dir @@ fun dir ->
  let handles = ref [] in
  let open_durable () =
    let d = Db.open_durable ~sync:Spitz_storage.Wal.Never dir in
    handles := d :: !handles;
    d
  in
  Fun.protect
    ~finally:(fun () ->
        Spitz_storage.Fault.reset ();
        List.iter (fun d -> try Db.close_durable d with _ -> ()) !handles)
  @@ fun () ->
  let d = open_durable () in
  let db = Db.durable_db d in
  let keys = List.map Trace.key (probe_keys tr (Trace.apply_model tr)) in
  (* the block count of the newest completed checkpoint *)
  let checkpointed = ref 0 in
  let checkpoint () =
    Db.checkpoint d;
    checkpointed := Db.L.height (Db.ledger db)
  in
  List.iteri
    (fun i -> function
       | Trace.Commit ws -> ignore (Db.commit db (writes_of ws))
       | Trace.Reopen ->
         if i mod 2 = 1 then ignore (Db.commit db []);
         checkpoint ())
    tr.steps;
  (* a session pins the head, then the head moves on without it *)
  let server = Server.start ~config:{ Server.default_config with accept_domains = 1 } db in
  let port = Server.port server in
  let session = Session.connect ~port () in
  Fun.protect ~finally:(fun () -> Session.close session) @@ fun () ->
  Session.sync session;
  let old_pin = Session.pin_height session in
  ignore (Db.commit db [ Ledger.Put (Trace.key 0, "after the session's pin") ]);
  Server.stop server;
  let live_digest = Db.digest db in
  let live_bodies = Db.L.body_hashes (Db.ledger db) in
  let cells db = List.map (fun k -> (Db.get db k, Db.history db k)) keys in
  let live_cells = cells db in
  let verified_reads db ~height =
    let s = Option.get (Db.snapshot ~height db) in
    let digest = Db.Snapshot.digest s in
    List.map
      (fun key ->
         let v, proof = Db.Snapshot.get_verified s key in
         if not (Db.verify_read ~digest ~key ~value:v proof) then
           fail "read proof for %S at height %d does not verify" key height;
         v)
      keys
  in
  let n = Db.L.height (Db.ledger db) in
  let live_reads = List.init n (fun height -> verified_reads db ~height) in
  (match List.length tr.steps mod 3 with
   | 0 ->
     checkpoint ();
     Db.close_durable d
   | 1 -> checkpoint ()
   | _ -> (
     Spitz_storage.Fault.arm "checkpoint.after_mark";
     match Db.checkpoint d with
     | exception Spitz_storage.Fault.Crash _ -> Spitz_storage.Fault.reset ()
     | () -> fail "checkpoint.after_mark did not fire"));
  let db' = Db.durable_db (open_durable ()) in
  if Db.digest db' <> live_digest then fail "reopen does not reproduce the digest";
  if Db.L.body_hashes (Db.ledger db') <> live_bodies then fail "reopen changed the journal";
  if cells db' <> live_cells then fail "reopen changed a cell read or history";
  if not (Db.audit db') then fail "reopened chain audit failed";
  let horizon = Db.horizon db' in
  if horizon > max 0 (!checkpointed - 1) then
    fail "horizon %d above the newest checkpoint's head block %d" horizon (!checkpointed - 1);
  List.iteri
    (fun height live ->
       if height >= horizon then begin
         if verified_reads db' ~height <> live then
           fail "verified reads at height %d differ from the live run" height
       end
       else
         match Db.snapshot ~height db' with
         | exception Db.Below_horizon _ -> ()
         | _ -> fail "height %d below the horizon %d pinned without an error" height horizon)
    live_reads;
  (* the session still pins the old head: a read there re-anchors when the
     reopen no longer holds that block's instance, and is never older *)
  let server = Server.start ~config:{ Server.default_config with port; accept_domains = 1 } db' in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let key = Trace.key 0 in
  let got = Session.get_verified session key in
  (match (old_pin, Session.pin_height session) with
   | Some old, Some pin ->
     if pin < old then fail "session read at pin %d, older than its pin %d" pin old;
     if pin < horizon then fail "session read at pin %d below the horizon %d" pin horizon;
     if got <> Db.get_at db' ~height:pin key then
       fail "session read %s at pin %d, the database %s" (opt_str got) pin
         (opt_str (Db.get_at db' ~height:pin key))
   | _ -> fail "session lost its pin");
  if Session.failures session > 0 then fail "session verification failures after the reopen"

(* N verifying client sessions over a real loopback socket, racing mixed
   idempotent writes and proof-checked reads against each other. The server
   commits through the same group-commit path the in-process storms
   exercise, but everything crosses the wire codec, the frame layer, and the
   session's digest-pinning verification. Afterwards the committed order —
   recovered from the Apply tokens in the block statements — replayed
   serially must reproduce the settled digest bit for bit, and every
   client-verified (height, key, value) observation must match [Db.get_at]. *)
let check_concurrent_clients (tr : Trace.trace) =
  let module Server = Spitz_server.Server in
  let module Session = Spitz_server.Session in
  let batches =
    List.filter_map (function Trace.Commit ws -> Some ws | Trace.Reopen -> None) tr.steps
  in
  if batches <> [] then begin
    let db = Db.open_db () in
    let server = Server.start db in
    Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
    let port = Server.port server in
    let nclients = min 3 (List.length batches) in
    let slices =
      List.init nclients (fun c ->
          List.filteri (fun i _ -> i mod nclients = c) batches)
    in
    let batch_of (c, j) = List.nth (List.nth slices c) j in
    (* an Apply batch commits puts before deletes; replay must mirror that *)
    let split ws =
      List.partition_map
        (function
          | Trace.W (k, v) -> Either.Left (Trace.key k, Trace.value k v)
          | Trace.D k -> Either.Right (Trace.key k))
        ws
    in
    let apply_writes ws =
      let puts, deletes = split ws in
      List.map (fun (k, v) -> Ledger.Put (k, v)) puts
      @ List.map (fun k -> Ledger.Delete k) deletes
    in
    let probe =
      match Model.keys_touched (List.fold_left Model.commit Model.empty batches) with
      | [] -> [| 0 |]
      | ks -> Array.of_list ks
    in
    let client c slice =
      let s = Session.connect ~port () in
      Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
      let obs = ref [] in
      List.iteri
        (fun j ws ->
          let puts, deletes = split ws in
          ignore (Session.apply s ~token:(sentinel c j) ~puts ~deletes);
          Session.sync s;
          (match Session.pin_height s with
           | Some h when h >= 0 ->
             (* point read and batch read, both proof-checked at the pin *)
             let key = Trace.key probe.((c + j) mod Array.length probe) in
             obs := (h, key, Session.get_verified s key) :: !obs;
             let key2 = Trace.key probe.((c + j + 1) mod Array.length probe) in
             (match Session.get_batch_verified s [ key; key2 ] with
              | [ v1; v2 ] -> obs := (h, key, v1) :: (h, key2, v2) :: !obs
              | vs -> fail "client %d: batch read returned %d values" c (List.length vs))
           | _ -> fail "client %d has no pin after a committed apply" c))
        slice;
      if Session.failures s > 0 then
        fail "client %d recorded %d verifier failures" c (Session.failures s);
      !obs
    in
    let domains =
      List.mapi (fun c slice -> Domain.spawn (fun () -> client c slice)) slices
    in
    let observations = List.concat_map Domain.join domains in
    let digest = Db.digest db in
    let ledger = Db.ledger db in
    let height = Db.L.height ledger in
    if height <> List.length batches then
      fail "client storm: %d blocks for %d batches" height (List.length batches);
    (* recover the committed order from the Apply tokens ("tx:cc:c:j") *)
    let order =
      List.init height (fun h ->
          match
            (Spitz_ledger.Journal.block (Db.L.journal ledger) h).Spitz_ledger.Block.statements
          with
          | [ s ] when String.length s > 3 && String.sub s 0 3 = "tx:" ->
            parse_sentinel (String.sub s 3 (String.length s - 3))
          | ss ->
            fail "block %d carries statements %s, expected one Apply token" h
              (String.concat "," ss))
    in
    (* a valid merge of the per-client sequences *)
    let next = Array.make nclients 0 in
    List.iter
      (fun (c, j) ->
        if c < 0 || c >= nclients then fail "unknown client %d" c;
        if j <> next.(c) then
          fail "client %d: batch %d committed before batch %d" c j next.(c);
        next.(c) <- j + 1)
      order;
    (* the committed order, replayed serially, reproduces the digest *)
    let serial = Db.open_db () in
    List.iter
      (fun (c, j) ->
        ignore
          (Db.commit serial
             ~statements:[ "tx:" ^ sentinel c j ]
             (apply_writes (batch_of (c, j)))))
      order;
    if Db.digest serial <> digest then
      fail "client storm digest differs from the serial replay of its own order";
    (* every client-verified observation matches the committed prefix state *)
    List.iter
      (fun (h, key, v) ->
        let expect = Db.get_at db ~height:h key in
        if v <> expect then
          fail "client-verified read saw %s for %S at height %d; get_at says %s"
            (opt_str v) key h (opt_str expect))
      observations;
    (* a late-arriving client syncs straight to the settled digest *)
    let s = Session.connect ~port () in
    Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
    Session.sync s;
    if Session.digest s <> Some digest then
      fail "late client pinned a digest different from the settled head";
    if not (Db.audit db) then fail "client storm: chain audit failed"
  end

(* --- digest stability --- *)

let replay_digest (tr : Trace.trace) =
  let db = Db.open_db () in
  List.iter
    (function
      | Trace.Reopen -> ()
      | Trace.Commit ws -> ignore (Db.commit db (writes_of ws)))
    tr.steps;
  Db.digest db

let check_digest_stability (tr : Trace.trace) =
  with_temp_dir @@ fun dir ->
  let first = replay_digest tr in
  let second = replay_digest tr in
  if first <> second then fail "same trace, two different digests";
  (* a checkpoint and reopen preserve the digest *)
  let d = open_temp dir in
  let db = Db.durable_db d in
  let prefix_digests =
    List.filter_map
      (function
        | Trace.Reopen -> None
        | Trace.Commit ws ->
          ignore (Db.commit db (writes_of ws));
          Some (Db.digest db))
      tr.steps
  in
  Db.checkpoint d;
  Db.close_durable d;
  let d = open_temp dir in
  let reopened = Db.digest (Db.durable_db d) in
  Db.close_durable d;
  if reopened <> first then fail "digest changed across checkpoint and reopen";
  (* every prefix digest is consistently extended by the final one *)
  List.iter
    (fun old_digest ->
       let proof = Db.consistency db ~old_size:old_digest.Spitz_ledger.Journal.size in
       if not (Spitz_ledger.Journal.verify_consistency ~old_digest ~new_digest:first proof)
       then
         fail "consistency proof from size %d does not verify"
           old_digest.Spitz_ledger.Journal.size)
    prefix_digests
