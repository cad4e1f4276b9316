(* Tier-1 face of the property-testing harness (lib/check): fixed seeds,
   bounded case counts, deterministic. The same properties run open-ended
   under `bench/main.exe fuzz --deadline N` (see TESTING.md). *)

module K = Spitz_workload.Keygen
module Quick = Spitz_check.Quick
module Trace = Spitz_check.Trace
module Differ = Spitz_check.Differ
module Mutate = Spitz_check.Mutate
module Fuzz = Spitz_check.Fuzz

let check = Alcotest.(check bool)

(* --- the Quick core itself --- *)

let test_quick_deterministic () =
  (* same seed, same verdict and same counterexample *)
  let arb = Quick.make ~shrink:Quick.shrink_int ~print:string_of_int (fun rng -> K.int rng 1000) in
  let run () = Quick.check ~seed:42 (Quick.Cases 100) arb (fun n -> n < 900) in
  match (run (), run ()) with
  | Error a, Error b ->
    Alcotest.(check string) "same counterexample" a.Quick.counterexample b.Quick.counterexample;
    Alcotest.(check int) "same seed" a.Quick.seed b.Quick.seed
  | _ -> Alcotest.fail "expected both runs to find a failing case"

let test_quick_replay () =
  let arb = Quick.make ~print:string_of_int (fun rng -> K.int rng 1000) in
  match Quick.check ~seed:7 (Quick.Cases 200) arb (fun n -> n mod 17 <> 3) with
  | Ok _ -> Alcotest.fail "expected a failing case"
  | Error f ->
    (* the printed seed regenerates the exact failing case *)
    check "replay still fails" false (Quick.replay arb ~seed:f.Quick.seed (fun n -> n mod 17 <> 3));
    check "replay of a passing property passes" true
      (Quick.replay arb ~seed:f.Quick.seed (fun _ -> true))

let test_quick_shrinks () =
  (* shrinking drives the counterexample to the boundary *)
  let arb = Quick.make ~shrink:Quick.shrink_int ~print:string_of_int (fun rng -> K.int rng 10_000) in
  match Quick.check ~seed:3 (Quick.Cases 500) arb (fun n -> n < 500) with
  | Ok _ -> Alcotest.fail "expected a failing case"
  | Error f ->
    let n = int_of_string f.Quick.counterexample in
    check "shrunk into [500, 1000)" true (n >= 500 && n < 1000)

let test_quick_exception_is_failure () =
  let arb = Quick.make ~print:string_of_int (fun rng -> K.int rng 100) in
  match Quick.check ~seed:1 (Quick.Cases 50) arb (fun n -> if n > 10 then failwith "boom" else true) with
  | Ok _ -> Alcotest.fail "expected the raising property to fail"
  | Error f ->
    check "message mentions the exception" true
      (String.length f.Quick.message > 0
       && String.sub f.Quick.message 0 6 = "raised")

let test_keygen_replay () =
  let r = K.rng 12345 in
  ignore (K.next r);
  ignore (K.next r);
  let s = K.state r in
  let a = List.init 10 (fun _ -> K.next r) in
  let resumed = K.of_state s in
  let b = List.init 10 (fun _ -> K.next resumed) in
  Alcotest.(check (list int)) "of_state resumes the stream" a b;
  let r1 = K.rng 99 in
  let r2 = K.copy r1 in
  Alcotest.(check (list int))
    "copy is an independent cursor"
    (List.init 5 (fun _ -> K.next r1))
    (List.init 5 (fun _ -> K.next r2));
  let parent = K.rng 7 in
  let child = K.split parent in
  check "split child diverges from parent" true (K.next child <> K.next parent)

(* --- mutation engine --- *)

let test_mutate_always_differs () =
  let rng = K.rng 0xBEEF in
  for i = 0 to 499 do
    let len = i mod 40 in
    let input = String.init len (fun j -> Char.chr ((i + j) land 0xFF)) in
    if String.equal (Mutate.random rng input) input then
      Alcotest.fail (Printf.sprintf "mutant equals input at length %d" len)
  done

(* --- model-based differential properties (fixed seeds, tier 1) --- *)

let differential name prop cases seed () =
  Quick.run ~name ~seed (Quick.Cases cases) (Trace.arb ())
    (fun tr ->
       prop tr;
       true)

(* --- adversarial fuzz (fixed seed, tier 1) --- *)

let test_fuzz_budget () =
  (* the full mutant budget across every proof kind, every SIRI index, the
     baseline, and the durable store: nothing accepted, nothing foreign *)
  let r = Fuzz.fuzz_all ~seed:0xF12D () in
  if not (Fuzz.ok r) then Alcotest.fail (Fuzz.pp_report r);
  Alcotest.(check bool) "at least 10k mutants" true (r.Fuzz.total >= 10_000);
  (* every mutant was actively rejected or proven benign *)
  Alcotest.(check int) "accounting"
    r.Fuzz.total
    (r.Fuzz.rejected_decode + r.Fuzz.rejected_verify + r.Fuzz.benign)

let test_fuzz_frames_quick () =
  (* a small fixed-seed slice of the live-server frame fuzzer: mutated
     frames against a loopback server, nothing accepted, nothing foreign,
     server healthy throughout *)
  let r = Fuzz.fuzz_frames ~cases:150 ~seed:0xF4A3 () in
  if not (Fuzz.ok r) then Alcotest.fail (Fuzz.pp_report r);
  Alcotest.(check bool) "cases ran" true (r.Fuzz.total >= 150)

let test_fuzz_slices_quick () =
  (* slice-window decoding must be indistinguishable from string decoding on
     honest, mutated, and edge-torn inputs embedded at arbitrary offsets *)
  let r = Fuzz.fuzz_slices ~cases:300 ~seed:0x51CE () in
  if not (Fuzz.ok r) then Alcotest.fail (Fuzz.pp_report r);
  Alcotest.(check bool) "cases ran" true (r.Fuzz.total >= 300)

let test_decoders_reject_truncations () =
  (* every strict prefix of a canonical encoding must raise Malformed — the
     PR-3 hardening, now uniform across all top-level decoders *)
  let l_targets = Fuzz.proof_targets ~seed:0x72C in
  List.iter
    (fun (t : Fuzz.target) ->
       let n = String.length t.Fuzz.encoded in
       for len = 0 to n - 1 do
         match t.Fuzz.classify (String.sub t.Fuzz.encoded 0 len) with
         | Fuzz.Rejected_decode | Fuzz.Rejected_verify -> ()
         | Fuzz.Benign -> Alcotest.fail (t.Fuzz.tname ^ ": truncation decoded as benign")
         | Fuzz.Accepted d -> Alcotest.fail (t.Fuzz.tname ^ ": truncation accepted: " ^ d)
         | Fuzz.Foreign d -> Alcotest.fail (t.Fuzz.tname ^ ": truncation leaked: " ^ d)
       done)
    l_targets

let test_wire_list_length_cap () =
  (* a claimed element count beyond the remaining bytes must be rejected
     before allocation, not by running off the end *)
  let buf = Spitz_storage.Wire.writer () in
  Spitz_storage.Wire.write_varint buf max_int;
  let data = Spitz_storage.Wire.contents buf in
  match Spitz_storage.Wire.decode "test" (fun r -> Spitz_storage.Wire.read_hash_list r) data with
  | exception Spitz_storage.Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "absurd list length decoded"

(* --- pinned regressions for bugs found by this harness --- *)

let test_regression_duplicate_key_batch () =
  (* Found by check_spitz (seed pinned in the differential suite): a batch
     writing one key twice was tie-broken by value hash in the cell store —
     not by write order — so Db.get could disagree with the ledger index.
     Same for put-then-delete of one key in a batch. *)
  let db = Spitz.Db.open_db () in
  let k = Trace.key 0 in
  ignore
    (Spitz.Db.commit db
       [ Spitz_ledger.Ledger.Put (k, "first"); Spitz_ledger.Ledger.Put (k, "second") ]);
  Alcotest.(check (option string)) "last write wins in the cell store" (Some "second")
    (Spitz.Db.get db k);
  let v, proof = Spitz.Db.get_verified db k in
  Alcotest.(check (option string)) "ledger agrees" (Some "second") v;
  check "proof verifies" true
    (Spitz.Db.verify_read ~digest:(Spitz.Db.digest db) ~key:k ~value:v (Option.get proof));
  ignore
    (Spitz.Db.commit db [ Spitz_ledger.Ledger.Put (k, "third"); Spitz_ledger.Ledger.Delete k ]);
  Alcotest.(check (option string)) "put-then-delete reads deleted" None (Spitz.Db.get db k)

let test_delete_tombstones () =
  (* Db.delete: reads, ranges, proofs, history, and save/load all agree *)
  let db = Spitz.Db.open_db () in
  let k0 = Trace.key 0 and k1 = Trace.key 1 in
  let h0 = Spitz.Db.put db k0 "a" in
  ignore (Spitz.Db.put db k1 "b");
  ignore (Spitz.Db.delete db k0);
  Alcotest.(check (option string)) "deleted key absent" None (Spitz.Db.get db k0);
  Alcotest.(check (option string)) "other key live" (Some "b") (Spitz.Db.get db k1);
  let lo, hi = K.range_bounds ~lo:0 ~hi:4 in
  Alcotest.(check (list (pair string string))) "range skips tombstone" [ (k1, "b") ]
    (Spitz.Db.range db ~lo ~hi);
  Alcotest.(check (option string)) "history below the tombstone" (Some "a")
    (Spitz.Db.get_at db ~height:h0 k0);
  let v, proof = Spitz.Db.get_verified db k0 in
  Alcotest.(check (option string)) "verified read sees absence" None v;
  check "absence proof verifies" true
    (Spitz.Db.verify_read ~digest:(Spitz.Db.digest db) ~key:k0 ~value:None (Option.get proof))

let test_regression_proof_node_dedup () =
  (* Found by the proof fuzzer (fuzz_all seed 0xF12D): MBT range proofs
     serialized the shared empty-subtree node once per occurrence, so
     mutating one copy left a proof that still verified with different
     bytes — malleable and needlessly large. Every range proof's node list
     must be duplicate-free. *)
  let check_impl (module S : Spitz_adt.Siri.S) =
    let store = Spitz_storage.Object_store.create () in
    let t =
      List.fold_left
        (fun t i -> S.insert t (K.key_of i) (K.value_of (K.key_of i)))
        (S.create store)
        (List.init 10 Fun.id)
    in
    let lo, hi = K.range_bounds ~lo:0 ~hi:9 in
    let _, proof = S.range_with_proof t ~lo ~hi in
    let nodes = proof.Spitz_adt.Siri.nodes in
    if List.length nodes <> List.length (List.sort_uniq String.compare nodes) then
      Alcotest.fail (S.name ^ ": range proof ships duplicate nodes")
  in
  List.iter check_impl
    [
      (module Spitz_adt.Merkle_bptree);
      (module Spitz_adt.Pos_tree);
      (module Spitz_adt.Mpt);
      (module Spitz_adt.Mbt);
    ]

(* --- conditional commits: serializability over Db snapshots --- *)

(* A transaction mix over few keys with read-modify-writes that append a
   marker, so the final value exposes execution order. Each transaction
   pins a Db snapshot, reads through it (recording each key and the pinned
   height), buffers its writes, and commits them conditionally on its
   reads; on [Db.Conflict] it starts over at a fresh snapshot. A seeded
   scheduler interleaves the transactions one operation at a time. The
   property: the final state equals SOME serial order of the transactions
   — checked by enumerating all permutations (n <= 4). *)
type txn_op =
  | Read of string
  | Write of string * string
  | Rmw of string * (string option -> string)

type txn = {
  spec : txn_op list;
  mutable snap : Spitz.Db.snapshot option;
  mutable todo : txn_op list;
  mutable reads : (string * int) list;
  mutable writes : (string * string) list; (* newest write per key *)
  mutable committed : bool;
}

let txn_serializable (specs_seed : int) =
  let module Db = Spitz.Db in
  let rng = K.rng specs_seed in
  let nkeys = 2 + K.int rng 2 in
  let key i = Printf.sprintf "k%d" i in
  let ntxn = 2 + K.int rng 3 in
  let specs =
    List.init ntxn (fun t ->
        List.init
          (1 + K.int rng 3)
          (fun _ ->
             let k = key (K.int rng nkeys) in
             match K.int rng 3 with
             | 0 -> Read k
             | 1 -> Write (k, Printf.sprintf "w%d" t)
             | _ ->
               Rmw
                 ( k,
                   fun prev ->
                     (match prev with None -> "" | Some v -> v) ^ Printf.sprintf "+%d" t ))
          )
  in
  let db = Db.open_db () in
  let start txn =
    txn.snap <- Db.snapshot db;
    txn.todo <- txn.spec;
    txn.reads <- [];
    txn.writes <- []
  in
  let txns =
    Array.of_list
      (List.map
         (fun spec -> { spec; snap = None; todo = []; reads = []; writes = []; committed = false })
         specs)
  in
  Array.iter start txns;
  let read txn k =
    match List.assoc_opt k txn.writes with
    | Some v -> Some v
    | None -> (
      match txn.snap with
      | None ->
        txn.reads <- (k, -1) :: txn.reads;
        None
      | Some s ->
        txn.reads <- (k, Db.Snapshot.height s) :: txn.reads;
        Db.Snapshot.get s k)
  in
  let write txn k v = txn.writes <- (k, v) :: List.remove_assoc k txn.writes in
  let step txn =
    match txn.todo with
    | op :: rest ->
      txn.todo <- rest;
      (match op with
       | Read k -> ignore (read txn k)
       | Write (k, v) -> write txn k v
       | Rmw (k, f) -> write txn k (f (read txn k)))
    | [] -> (
      match
        Db.commit db ~reads:txn.reads
          (List.map (fun (k, v) -> Spitz_ledger.Ledger.Put (k, v)) txn.writes)
      with
      | _ -> txn.committed <- true
      | exception Db.Conflict _ -> start txn)
  in
  let sched = K.rng (specs_seed lxor 0x7) in
  let rec run steps =
    let live = List.filter (fun t -> not t.committed) (Array.to_list txns) in
    if live <> [] then begin
      if steps > 10_000 then failwith "transactions did not all commit";
      step (List.nth live (K.int sched (List.length live)));
      run (steps + 1)
    end
  in
  run 0;
  (* reference: apply one permutation serially over a plain map *)
  let apply_serial order =
    let m = Hashtbl.create 8 in
    List.iter
      (fun t ->
         List.iter
           (fun op ->
              match op with
              | Read _ -> ()
              | Write (k, v) -> Hashtbl.replace m k v
              | Rmw (k, f) -> Hashtbl.replace m k (f (Hashtbl.find_opt m k)))
           (List.nth specs t))
      order;
    m
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
        l
  in
  let matches m =
    List.for_all (fun i -> Hashtbl.find_opt m (key i) = Db.get db (key i)) (List.init nkeys Fun.id)
  in
  List.exists (fun order -> matches (apply_serial order)) (permutations (List.init ntxn Fun.id))

let test_txn_serializability () =
  let arb = Quick.make ~print:string_of_int (fun rng -> K.int rng 1_000_000) in
  Quick.run ~name:"serializability of conditional commits" ~seed:0x5E1A (Quick.Cases 40) arb
    txn_serializable

let suite =
  [
    Alcotest.test_case "quick: deterministic by seed" `Quick test_quick_deterministic;
    Alcotest.test_case "quick: failure replays from printed seed" `Quick test_quick_replay;
    Alcotest.test_case "quick: shrinking reaches the boundary" `Quick test_quick_shrinks;
    Alcotest.test_case "quick: exceptions are failures" `Quick test_quick_exception_is_failure;
    Alcotest.test_case "keygen: state/of_state/copy/split replay" `Quick test_keygen_replay;
    Alcotest.test_case "mutate: mutants always differ" `Quick test_mutate_always_differs;
    Alcotest.test_case "differ: spitz vs model" `Quick
      (differential "spitz vs model" Differ.check_spitz 25 0xD1FF);
    Alcotest.test_case "differ: all systems vs model" `Quick
      (differential "all systems vs model" Differ.check_cross 20 0xC055);
    Alcotest.test_case "differ: every siri index vs model" `Quick
      (differential "siri indexes vs model" Differ.check_siri 12 0x51B1);
    Alcotest.test_case "differ: digest stability + consistency proofs" `Quick
      (differential "digest stability" Differ.check_digest_stability 10 0x57AB);
    Alcotest.test_case "differ: concurrent commits serializable" `Quick
      (differential "concurrent commits" Differ.check_concurrent_commits 10 0xCC17);
    Alcotest.test_case "differ: concurrent readers linearizable" `Quick
      (differential "concurrent reads" Differ.check_concurrent_reads 10 0x2EAD);
    Alcotest.test_case "differ: checkpoint storm serializable" `Quick
      (differential "checkpoint storm" Differ.check_checkpoint_storm 6 0xC4E7);
    Alcotest.test_case "differ: compacted checkpoints reopen like the live run" `Quick
      (differential "compacted reopen" Differ.check_compacted_reopen 12 0xC0DE);
    Alcotest.test_case "differ: concurrent clients over loopback" `Quick
      (differential "concurrent clients" Differ.check_concurrent_clients 6 0xCC1E);
    Alcotest.test_case "fuzz: 10k+ mutants, zero accepted, zero foreign" `Slow test_fuzz_budget;
    Alcotest.test_case "fuzz: live frame mutants rejected" `Quick test_fuzz_frames_quick;
    Alcotest.test_case "fuzz: slice decode equals string decode" `Quick test_fuzz_slices_quick;
    Alcotest.test_case "fuzz: all truncations rejected" `Quick test_decoders_reject_truncations;
    Alcotest.test_case "wire: absurd list length rejected" `Quick test_wire_list_length_cap;
    Alcotest.test_case "regression: duplicate key in one batch" `Quick
      test_regression_duplicate_key_batch;
    Alcotest.test_case "db: delete tombstones everywhere" `Quick test_delete_tombstones;
    Alcotest.test_case "regression: range proofs duplicate-free" `Quick
      test_regression_proof_node_dedup;
    Alcotest.test_case "txn: random interleavings serializable" `Quick test_txn_serializability;
  ]
