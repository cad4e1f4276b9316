(* The paper's evaluation (section 6) and the ablations next to it.
   Throughputs are in 10^3 ops/s, the unit of the paper's y-axes. *)

open Spitz_workload
open Harness
module Kv = Spitz_kvstore.Kv
module B = Spitz_baseline.Baseline_db
module C = Spitz_nonintrusive.Combined
module Os = Spitz_storage.Object_store

(* ---------- the systems the figures compare ---------- *)

(* One system loaded with keys 0..n-1, one commit per key. Each operation
   takes a key (a put writes [Keygen.value_of key]); a verified operation
   checks its proof against the system's digest at call time and asserts
   it verifies. *)
type system = {
  get : string -> unit;
  get_vrf : string -> unit;
  put : string -> unit;
  put_vrf : string -> unit;
  range : string * string -> unit;  (* lo, hi *)
  range_vrf : string * string -> unit;
}

let unmeasured _ = invalid_arg "not measured on this system"
let load put n = List.iter put (List.init n Keygen.key_of)

let kvs n =
  let kv = Kv.create () in
  let put k = ignore (Kv.put kv k (Keygen.value_of k)) in
  load put n;
  {
    get = (fun k -> ignore (Kv.get kv k));
    get_vrf = unmeasured;
    put;
    put_vrf = unmeasured;
    range = (fun (lo, hi) -> ignore (Kv.range kv ~lo ~hi));
    range_vrf = unmeasured;
  }

let spitz n =
  let db = Db.open_db () in
  ignore (fill db n);
  {
    get = (fun k -> ignore (Db.get db k));
    get_vrf =
      (fun key ->
         let digest = Db.digest db in
         let value, proof = Db.get_verified db key in
         assert (Db.verify_read ~digest ~key ~value (Option.get proof)));
    put = (fun k -> ignore (Db.put db k (Keygen.value_of k)));
    put_vrf =
      (fun k ->
         let _, receipt = Db.put_verified db k (Keygen.value_of k) in
         assert (Db.verify_write ~digest:(Db.digest db) receipt));
    range = (fun (lo, hi) -> ignore (Db.range db ~lo ~hi));
    range_vrf =
      (fun (lo, hi) ->
         let digest = Db.digest db in
         let entries, proof = Db.range_verified db ~lo ~hi in
         assert (Db.verify_range ~digest ~lo ~hi ~entries (Option.get proof)));
  }

(* The baseline: a separate ledger beside a plain store (section 6.1). A
   verified write reads its key back with a proof. *)
let baseline n =
  let b = B.create () in
  let put k = ignore (B.put b k (Keygen.value_of k)) in
  load put n;
  let get_vrf key =
    let digest = B.digest b in
    let value, proof = B.get_verified b key in
    assert (B.verify ~digest ~key ~value:(Option.get value) (Option.get proof))
  in
  {
    get = (fun k -> ignore (B.get b k));
    get_vrf;
    put;
    put_vrf = (fun k -> put k; get_vrf k);
    range = (fun (lo, hi) -> ignore (B.range b ~lo ~hi));
    range_vrf =
      (fun (lo, hi) ->
         let digest = B.digest b in
         let results, proofs = B.range_verified b ~lo ~hi in
         assert (B.verify_range ~digest results proofs));
  }

(* The non-intrusive design: Spitz beside an unmodified store, every
   request crossing both (section 4). *)
let non_intrusive n =
  let c = C.create () in
  let put k = C.put c k (Keygen.value_of k) in
  load put n;
  let get_vrf key =
    let digest = C.digest c in
    let value, proof = C.get_verified c key in
    assert (C.verify_read ~digest ~key ~value (Option.get proof))
  in
  {
    get = (fun k -> ignore (C.get c k));
    get_vrf;
    put;
    put_vrf = (fun k -> put k; get_vrf k);
    range = unmeasured;
    range_vrf = unmeasured;
  }

type op = Get | Get_vrf | Put | Put_vrf | Range | Range_vrf

(* Call [i] of [op] on [s], which holds [n] keys: reads pick keys from
   [rng], puts write new keys n+i, ranges cover 0.1% of the keys. *)
let step s op ~rng ~n i =
  let pick () = Keygen.key_of (Keygen.int rng n) in
  let bounds () =
    let span = max 1 (n / 1000) in
    let lo = Keygen.int rng (max 1 (n - span)) in
    Keygen.range_bounds ~lo ~hi:(lo + span - 1)
  in
  match op with
  | Get -> s.get (pick ())
  | Get_vrf -> s.get_vrf (pick ())
  | Put -> s.put (Keygen.key_of (n + i))
  | Put_vrf -> s.put_vrf (Keygen.key_of (n + i))
  | Range -> s.range (bounds ())
  | Range_vrf -> s.range_vrf (bounds ())

(* ---------- Figures 6, 7 and 8: (operation, system) columns ---------- *)

(* A column times [op] on [system] for [share] of the figure's operation
   count at each record count. *)
type column = { name : string; system : int -> system; op : op; share : int -> int }

let col ?(share = Fun.id) name system op = { name; system; op; share }
let half n = n / 2

(* One row per record count. Read columns on the same system share one
   loaded instance; a write column loads its own. *)
let figure ~key ~title:t ~seed ~count columns shape () =
  title "%s" t;
  let emit = table () in
  let rows =
    List.map
      (fun n ->
         let rng = Keygen.rng (n + seed) in
         let last = ref None in
         let instance c =
           match !last with
           | Some (system, s) when system == c.system && (c.op <> Put && c.op <> Put_vrf) -> s
           | _ ->
             let s = c.system n in
             last := Some (c.system, s);
             s
         in
         let cells =
           List.map
             (fun c ->
                let s = instance c in
                (c.name, kops (Runner.time_ops ~ops:(c.share (count n)) (step s c.op ~rng ~n))))
             columns
         in
         emit (("records", int n) :: cells))
      (Runner.record_counts ~scale:!scale ())
  in
  add_result key (J.Arr rows);
  List.iter (pr "%s\n") shape

let reads _ = !ops
let writes n = min !ops (max 1000 (n / 2))

(* 0.1% selectivity: a range costs about span point reads *)
let range_queries n = max 100 (min 2000 (!ops * 20 / max 1 (n / 1000)))

let fig6a =
  figure ~key:"fig6a" ~title:"Figure 6(a): point reads, single thread (10^3 ops/s)" ~seed:1
    ~count:reads
    [ col "kvs" kvs Get; col "spitz" spitz Get; col ~share:half "spitz-vrf" spitz Get_vrf;
      col "baseline" baseline Get; col ~share:half "base-vrf" baseline Get_vrf ]
    [ "(expected shape: kvs highest; spitz ~ baseline without verification;";
      " spitz-vrf a small factor below spitz; base-vrf far below baseline and";
      " several-fold below spitz-vrf)" ]

let fig6b =
  figure ~key:"fig6b" ~title:"Figure 6(b): writes, single thread (10^3 ops/s)" ~seed:0
    ~count:writes
    [ col "kvs" kvs Put; col "spitz" spitz Put; col ~share:half "spitz-vrf" spitz Put_vrf;
      col "baseline" baseline Put; col ~share:half "base-vrf" baseline Put_vrf ]
    [ "(expected shape: spitz close to kvs with and without verification;";
      " baseline below both, paying the separate ledger plus multiple views)" ]

let fig7 =
  figure ~key:"fig7" ~title:"Figure 7: range queries, 0.1% selectivity (10^3 queries/s)"
    ~seed:2 ~count:range_queries
    [ col "kvs" kvs Range; col "spitz" spitz Range;
      col ~share:(fun q -> max 50 (q / 2)) "spitz-vrf" spitz Range_vrf;
      col "baseline" baseline Range;
      col ~share:(fun q -> max 20 (q / 10)) "base-vrf" baseline Range_vrf ]
    [ "(expected shape: throughput falls as n grows at fixed selectivity; with";
      " verification enabled spitz leads base-vrf by 1-2 orders of magnitude,";
      " because the baseline retrieves one ledger proof per resulting record)" ]

let fig8_shape =
  [ "(expected shape: spitz above the non-intrusive design in all settings;";
    " the gap is largest with verification on, where the non-intrusive path";
    " crosses two systems per request)" ]

let fig8a =
  figure ~key:"fig8a" ~title:"Figure 8(a): non-intrusive vs Spitz, reads (10^3 ops/s)" ~seed:3
    ~count:reads
    [ col "spitz" spitz Get; col ~share:half "spitz-vrf" spitz Get_vrf;
      col "non-intr" non_intrusive Get; col ~share:half "non-i-vrf" non_intrusive Get_vrf ]
    fig8_shape

let fig8b =
  figure ~key:"fig8b" ~title:"Figure 8(b): non-intrusive vs Spitz, writes (10^3 ops/s)" ~seed:3
    ~count:writes
    [ col "spitz" spitz Put; col ~share:half "spitz-vrf" spitz Put_vrf;
      col "non-intr" non_intrusive Put; col ~share:half "non-i-vrf" non_intrusive Put_vrf ]
    fig8_shape

(* ---------- Figure 1: storage vs versions ---------- *)

let physical store = (Os.stats store).Os.physical_bytes

let fig1 () =
  title "Figure 1: wiki-page storage vs number of versions";
  let wiki = Wiki.create () in
  let store = Os.create () in
  (* version 0: initial pages *)
  List.iter (fun p -> ignore (Os.put_blob store p)) (Wiki.pages wiki);
  let naive = ref (List.fold_left (fun a p -> a + String.length p) 0 (Wiki.pages wiki)) in
  let emit = table () in
  let rows = ref [] in
  for v = 1 to 60 do
    let _, page = Wiki.edit wiki in
    naive := !naive + String.length page; (* a full snapshot of the edited page *)
    ignore (Os.put_blob store page);
    if v mod 10 = 0 then
      rows :=
        emit
          [
            ("versions", int v);
            ("naive_bytes", int !naive);
            ("dedup_bytes", int (physical store));
            ("dedup_ratio", num (float_of_int !naive /. float_of_int (physical store)));
          ]
        :: !rows
  done;
  add_result "fig1" (J.Arr (List.rev !rows));
  pr "(expected shape: naive grows at ~16 KB per version; the content-addressed\n";
  pr " store grows at roughly the edit size, so the gap widens with versions)\n"

(* ---------- SIRI ablation ---------- *)

let siri () =
  let n = max 2000 (50_000 / !scale) in
  let updates = 1000 in
  title "SIRI ablation: %d records, %d updates" n updates;
  let emit = table () in
  let bench (module S : Spitz_adt.Siri.S) =
    let build store keys =
      List.fold_left
        (fun t i ->
           let k = Keygen.key_of i in
           S.insert t k (Keygen.value_of k))
        (S.create store) keys
    in
    let store = Os.create () in
    let keys = List.init n Fun.id in
    let t, build_s = Runner.time (fun () -> build store keys) in
    let t = ref t in
    let rng = Keygen.rng 11 in
    let pick () = Keygen.key_of (Keygen.int rng n) in
    let t_get = Runner.time_ops ~ops:20_000 (fun _ -> ignore (S.get !t (pick ()))) in
    let digest = S.root_digest !t in
    let t_vrf =
      Runner.time_ops ~ops:5_000 (fun _ ->
          let key = pick () in
          let value, proof = S.get_with_proof !t key in
          assert (S.verify_get ~digest ~key ~value proof))
    in
    let _, p = S.get_with_proof !t (pick ()) in
    let lo, hi = Keygen.range_bounds ~lo:(n / 2) ~hi:((n / 2) + (n / 100)) in
    let _, rp = S.range_with_proof !t ~lo ~hi in
    (* bytes newly stored per update: node sharing across versions *)
    let before = physical store in
    for i = 0 to updates - 1 do
      let k = Keygen.key_of (Keygen.int rng n) in
      t := S.insert !t k (Keygen.value_of ~version:(i + 1) k)
    done;
    let after = physical store in
    (* the same updates arriving as 16-key blocks, one [insert_batch] each —
       the ledger's commit shape: per-key cost once every touched node is
       stored once per block *)
    let blocks = updates / 16 in
    for b = 0 to blocks - 1 do
      t :=
        S.insert_batch !t
          (List.init 16 (fun j ->
               let k = Keygen.key_of (Keygen.int rng n) in
               (k, Keygen.value_of ~version:(updates + (b * 16) + j + 1) k)))
    done;
    (* structural invariance: does a different insertion order produce a
       byte-identical structure? (the defining SIRI property POS-tree has
       and insertion-order-dependent trees lack) *)
    let forward = List.init (min n 3000) Fun.id in
    let invariant =
      Spitz_crypto.Hash.equal
        (S.root_digest (build (Os.create ()) forward))
        (S.root_digest (build (Os.create ()) (List.rev forward)))
    in
    emit
      [
        ("index", J.Str S.name);
        ("build_seconds", num build_s);
        ("get_kops", kops t_get);
        ("verify_kops", kops t_vrf);
        ("proof_bytes", int (Spitz_adt.Siri.proof_size p));
        ("range_proof_bytes", int (Spitz_adt.Siri.proof_size rp));
        ("bytes_per_update", int ((after - before) / updates));
        ("bytes_per_update_block16", int ((physical store - after) / (blocks * 16)));
        ("structurally_invariant", bool invariant);
      ]
  in
  add_result "siri"
    (J.Arr
       (List.map bench
          [ (module Spitz_adt.Pos_tree : Spitz_adt.Siri.S); (module Spitz_adt.Merkle_bptree);
            (module Spitz_adt.Mpt); (module Spitz_adt.Mbt) ]));
  pr "(expected shape, per [59]: MBT has compact point proofs but whole-tree\n";
  pr " range proofs; MPT and the Merkle B+-tree have small proofs; POS-tree\n";
  pr " trades larger content-defined nodes for structural invariance — the\n";
  pr " property that lets independent replicas deduplicate each other. MPT and\n";
  pr " MBT are also structurally invariant; the B+-tree is insertion-order\n";
  pr " dependent. upd16-bytes: the Merkle B+-tree stores each node a 16-key\n";
  pr " block touches once, so it sits well below upd-bytes; the other indexes\n";
  pr " apply a block key by key and stay near upd-bytes)\n"

(* ---------- online vs deferred verification ---------- *)

(* Online: every write commits only after its receipt verifies — digest
   sync, receipt fetch, and verification all sit on the write path.
   Deferred: writes commit immediately; every [batch] writes the client
   syncs its digest once, fetches that block span's receipts, and verifies
   them together. *)
let verify_mode () =
  let module V = Spitz_ledger.Verifier.Default in
  let n = max 2000 (20_000 / !scale) in
  title "Verification timing: online vs deferred (section 5.3)";
  let run mode ~batch =
    let db = Db.open_db () in
    let client = V.create ~mode () in
    let heights = ref [] in
    let settle () =
      let digest = Db.digest db in
      let consistency =
        match V.digest client with
        | Some old -> Db.consistency db ~old_size:old.Spitz_ledger.Journal.size
        | None -> []
      in
      ignore (V.sync client ~digest ~consistency);
      List.iter
        (fun h ->
           List.iter
             (fun r -> ignore (V.submit_write client r))
             (Db.L.write_receipts (Db.ledger db) ~height:h))
        (List.rev !heights);
      heights := []
    in
    let thr =
      Runner.time_ops ~ops:n (fun i ->
          let k = Keygen.key_of i in
          heights := Db.put db k (Keygen.value_of k) :: !heights;
          if (i + 1) mod batch = 0 then settle ())
    in
    settle ();
    assert (V.flush client && V.failures client = 0);
    thr
  in
  let online = run V.Online ~batch:1 in
  let deferred = run (V.Deferred 100) ~batch:100 in
  add_result "verify_mode"
    (J.Obj
       (record
          [ ("writes", int n); ("online_kops", kops online);
            ("deferred_100_kops", kops deferred) ]));
  pr "(expected shape: deferred batching verifies the same receipts at higher\n";
  pr " write throughput by taking per-write digest syncs and verification off\n";
  pr " the commit path)\n"

(* ---------- batched verification ---------- *)

(* One-at-a-time vs batched vs batched+parallel verification of the same
   reads. Server-side proof generation happens outside the timers; what is
   measured is the client: per-key proofs pay one journal-inclusion check and
   one proof-index build (every node hashed) per key, the batched proof pays
   them once per batch. Accept/reject decisions are asserted identical across
   all three modes, including under tampering. *)
let verify_bench () =
  let n = max 2000 (20_000 / !scale) in
  let batch = 64 in
  let batches = max 4 (min 64 (!ops / batch)) in
  title "Batched verification: %d batches of %d reads over %d records" batches batch n;
  let module L = Db.L in
  let db = Db.open_db () in
  ignore (fill db n);
  let digest = Db.digest db in
  let rng = Keygen.rng 42 in
  (* distinct keys per batch; every 16th key is absent, exercising the
     absence path of both verifiers *)
  let make_batch b =
    List.init batch (fun j ->
        if j mod 16 = 15 then Keygen.key_of (n + (b * batch) + j)
        else Keygen.key_of (Keygen.int rng n))
  in
  let key_sets = List.init batches make_batch in
  let per_key =
    List.map
      (List.map (fun key ->
           let value, proof = Db.get_verified db key in
           (key, value, Option.get proof)))
      key_sets
  in
  let batched =
    List.map
      (fun keys ->
         let values, proof = Db.get_batch_verified db keys in
         (List.combine keys values, Option.get proof))
      key_sets
  in
  (* per-key and batched reads must return the same values *)
  List.iter2
    (fun pk (items, _) -> List.iter2 (fun (_, v, _) (_, v') -> assert (v = v')) pk items)
    per_key batched;
  (* decisions must be identical across modes, accept and reject alike *)
  let one_decision pk =
    List.for_all (fun (key, value, proof) -> Db.verify_read ~digest ~key ~value proof) pk
  in
  let batch_decision (items, proof) = Db.verify_batch_read ~digest ~items proof in
  List.iter2
    (fun pk b ->
       let d = batch_decision b in
       assert (one_decision pk = d);
       assert d)
    per_key batched;
  (* a tampered claim must be rejected by every mode *)
  (match (per_key, batched) with
   | pk :: _, (items, bproof) :: _ ->
     let k0, v0, p0 = List.hd pk in
     let forged = Some (match v0 with Some v -> v ^ "!" | None -> "bogus") in
     assert (not (Db.verify_read ~digest ~key:k0 ~value:forged p0));
     let forged_items = (k0, forged) :: List.tl items in
     assert (not (Db.verify_batch_read ~digest ~items:forged_items bproof))
   | _ -> assert false);
  (* wire bytes: [batch] per-key envelopes vs one batched envelope *)
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  let per_key_bytes =
    sum (sum (fun (_, _, p) -> String.length (L.encode_read_proof p))) per_key
  in
  let batch_bytes = sum (fun (_, p) -> String.length (L.encode_batch_proof p)) batched in
  assert (batch_bytes < per_key_bytes);
  (* timings: keys verified per second, same pre-generated proofs *)
  let keys_total = batches * batch in
  let rounds = max 1 (2000 / keys_total) in
  let time_mode f = Runner.time_ops ~ops:rounds (fun _ -> f ()) *. float_of_int keys_total in
  let t_one = time_mode (fun () -> List.iter (fun pk -> assert (one_decision pk)) per_key) in
  let t_batch = time_mode (fun () -> List.iter (fun b -> assert (batch_decision b)) batched) in
  (* the batches split over the recommended domain count: this domain
     verifies one share, a spawned domain each of the others *)
  let nd = Domain.recommended_domain_count () in
  let verify_share d = List.for_all batch_decision (List.filteri (fun i _ -> i mod nd = d) batched) in
  let t_par =
    time_mode (fun () ->
        let spawned = List.init (nd - 1) (fun d -> Domain.spawn (fun () -> verify_share (d + 1))) in
        let mine = verify_share 0 in
        assert (List.for_all Fun.id (mine :: List.map Domain.join spawned)))
  in
  add_result "verify"
    (J.Obj
       (record
          [
            ("records", int n);
            ("batch", int batch);
            ("batches", int batches);
            ("one_at_a_time_kops", kops t_one);
            ("batched_kops", kops t_batch);
            ("batched_parallel_kops", kops t_par);
            ("batched_speedup", num (t_batch /. t_one));
            ("parallel_speedup", num (t_par /. t_one));
            ("per_key_proof_bytes", int per_key_bytes);
            ("batched_proof_bytes", int batch_bytes);
            ("proof_bytes_ratio", num (float_of_int per_key_bytes /. float_of_int batch_bytes));
            ("decisions_equal", bool true);
          ]));
  pr "(expected shape: batched verification several-fold above one-at-a-time —\n";
  pr " one journal anchor and one proof-index build per batch instead of per\n";
  pr " key — and splitting the batches over domains multiplies it further on\n";
  pr " multicore)\n"

(* ---------- concurrency-control ablation ---------- *)

(* Section 5.2's OCC over MVCC on the served write path: sessions increment
   Zipf(0.9)-chosen counters through [Session.update] — a verified read at
   a fresh pin, then an [Apply_if] conditional on it — against one server,
   and a conflict sends the update back for a fresh read. The conflict
   rate is conflicts over update attempts. Gate: every run's counters sum
   to its acknowledged increments. The blind row does the same
   read-modify-write with a plain [Apply], for contrast: the increments it
   loses are printed, not gated. *)
let cc () =
  let module Server = Spitz_server.Server in
  let module Session = Spitz_server.Session in
  let increments = max 100 (!ops / 5) in
  title "Concurrency control: conditional Apply under Zipf(0.9) contention (section 5.2)";
  pr "(%d increments per run, split over the sessions)\n" increments;
  let incr v = string_of_int (1 + match v with Some s -> int_of_string s | None -> 0) in
  let run ~blind ~keys ~sessions =
    let db = Db.open_db () in
    let server = Server.start db in
    Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
    let port = Server.port server in
    let client c () =
      let s = Session.connect ~port () in
      Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
      let rng = Keygen.rng ((keys * 7) + c) in
      let share = (increments / sessions) + if c < increments mod sessions then 1 else 0 in
      for _ = 1 to share do
        let k = Printf.sprintf "k%04d" (Keygen.pick rng (Keygen.Zipfian 0.9) keys) in
        if blind then begin
          Session.sync s;
          ignore (Session.put s k (incr (Session.get_verified s k)))
        end
        else ignore (Session.update s k incr)
      done;
      Session.conflicts s
    in
    let conflicts, wall =
      Runner.time (fun () ->
          List.fold_left ( + ) 0
            (List.map Domain.join (List.init sessions (fun c -> Domain.spawn (client c)))))
    in
    let counted =
      List.fold_left (fun acc (_, v) -> acc + int_of_string v) 0 (Db.range db ~lo:"k" ~hi:"l")
    in
    (conflicts, counted, float_of_int increments /. wall)
  in
  let emit = table () in
  let rows =
    List.concat_map
      (fun keys ->
         List.map
           (fun sessions ->
              let conflicts, counted, thr = run ~blind:false ~keys ~sessions in
              let ok = counted = increments in
              if not ok then
                fail "cc %d keys, %d sessions: counters sum to %d for %d acknowledged increments"
                  keys sessions counted increments;
              emit
                [ ("keys", int keys); ("sessions", int sessions); ("increments", int increments);
                  ("conflicts", int conflicts);
                  ("conflict_rate",
                   num (float_of_int conflicts /. float_of_int (increments + conflicts)));
                  ("increments_kops", kops thr); ("counters_ok", bool ok) ])
           [ 1; 2; 4 ])
      [ 16; 256; 4096 ]
  in
  pr "(expected shape: no conflict at one session; the rate grows with the sessions\n";
  pr " and falls as the keyspace grows; every increment is counted)\n";
  pr "\n-- blind Apply, the same read-modify-write without a read set (not gated) --\n";
  let _, counted, _ = run ~blind:true ~keys:16 ~sessions:4 in
  let blind =
    table ()
      [ ("keys", int 16); ("sessions", int 4); ("increments", int increments);
        ("counted", int counted); ("lost_updates", int (increments - counted)) ]
  in
  add_result "cc" (J.Obj [ ("increments_per_run", int increments); ("conditional", J.Arr rows);
                           ("blind", blind) ])

(* ---------- Bechamel micro-benchmarks ---------- *)

let bechamel () =
  let open Bechamel in
  let open Toolkit in
  let n = max 1000 (20_000 / !scale) in
  let kv = kvs n and db = spitz n and b = baseline n and c = non_intrusive n in
  let rng = Keygen.rng 5 in
  let wiki = Wiki.create () in
  let wiki_store = Os.create () in
  let test name s op =
    let i = ref 0 in
    Test.make ~name
      (Staged.stage (fun () ->
           incr i;
           step s op ~rng ~n !i))
  in
  let tests =
    [
      (* Figure 1: cost of one deduplicated version append *)
      Test.make ~name:"fig1/dedup-version"
        (Staged.stage (fun () ->
             let _, page = Wiki.edit wiki in
             ignore (Os.put_blob wiki_store page)));
      test "fig6a/kvs-get" kv Get;
      test "fig6a/spitz-get" db Get;
      test "fig6a/spitz-get-verified" db Get_vrf;
      test "fig6a/baseline-get-verified" b Get_vrf;
      test "fig6b/spitz-put" db Put;
      test "fig7/spitz-range-verified" db Range_vrf;
      test "fig7/baseline-range-verified" b Range_vrf;
      test "fig8/non-intrusive-get-verified" c Get_vrf;
    ]
  in
  title "Bechamel micro-benchmarks (one per figure, ns/op)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let rows =
    List.concat_map
      (fun test ->
         let raw = Benchmark.all cfg instances test in
         let results = Analyze.all ols Instance.monotonic_clock raw in
         Hashtbl.fold
           (fun name est acc ->
              match Analyze.OLS.estimates est with
              | Some [ ns ] -> (name, num ns) :: acc
              | _ -> acc)
           results [])
      tests
  in
  add_result "bechamel_ns_per_op" (J.Obj (record rows))
