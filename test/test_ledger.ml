open Spitz_ledger
open Spitz_storage
module Hash = Spitz_crypto.Hash
module L = Ledger.Default
module V = Verifier.Default

(* Verified reads at the head: pin the latest block, then read the pin. *)
let head l = Option.get (L.snapshot l)

(* --- blocks --- *)

let sample_entries =
  [
    { Block.op = Block.Insert; key = "k1"; value_hash = Hash.of_string "v1"; txn_id = 7 };
    { Block.op = Block.Update; key = "k2"; value_hash = Hash.of_string "v2"; txn_id = 7 };
    { Block.op = Block.Delete; key = "k3"; value_hash = Hash.null; txn_id = 8 };
  ]

let test_block_roundtrip () =
  let b =
    Block.create ~height:3 ~prev_hash:(Hash.of_string "prev") ~index_root:(Hash.of_string "idx")
      ~time:99 ~entries:sample_entries ~statements:[ "INSERT ..."; "DELETE ..." ]
  in
  let b' = Block.decode (Block.encode b) in
  Alcotest.(check bool) "headers equal" true
    (Hash.equal (Block.hash_header b.Block.header) (Block.hash_header b'.Block.header));
  Alcotest.(check int) "entries" 3 (List.length b'.Block.entries);
  Alcotest.(check (list string)) "statements" [ "INSERT ..."; "DELETE ..." ] b'.Block.statements;
  Alcotest.(check int) "entry count in header" 3 b.Block.header.Block.entry_count

let test_block_header_commits_entries () =
  let b1 =
    Block.create ~height:0 ~prev_hash:Hash.null ~index_root:Hash.null ~time:1
      ~entries:sample_entries ~statements:[]
  in
  let b2 =
    Block.create ~height:0 ~prev_hash:Hash.null ~index_root:Hash.null ~time:1
      ~entries:(List.tl sample_entries) ~statements:[]
  in
  Alcotest.(check bool) "different entries, different header hash" false
    (Hash.equal (Block.hash_header b1.Block.header) (Block.hash_header b2.Block.header))

(* --- journal --- *)

let make_block journal ~height entries =
  Block.create ~height ~prev_hash:(Journal.head_hash journal) ~index_root:Hash.null
    ~time:(height + 1) ~entries ~statements:[]

let test_journal_chain () =
  let store = Object_store.create () in
  let j = Journal.create store in
  Alcotest.(check int) "empty" 0 (Journal.length j);
  for h = 0 to 9 do
    Journal.append j (make_block j ~height:h sample_entries)
  done;
  Alcotest.(check int) "length" 10 (Journal.length j);
  Alcotest.(check bool) "chain intact" true (Journal.audit_chain j);
  let block = Journal.block j 4 in
  Alcotest.(check int) "block height" 4 block.Block.header.Block.height;
  Alcotest.(check int) "block entries" 3 (List.length block.Block.entries)

let test_journal_rejects_bad_links () =
  let store = Object_store.create () in
  let j = Journal.create store in
  Journal.append j (make_block j ~height:0 sample_entries);
  let bad_prev =
    Block.create ~height:1 ~prev_hash:(Hash.of_string "wrong") ~index_root:Hash.null ~time:2
      ~entries:[] ~statements:[]
  in
  Alcotest.check_raises "bad prev"
    (Invalid_argument "Journal.append: prev_hash does not extend the chain") (fun () ->
        Journal.append j bad_prev);
  let bad_height =
    Block.create ~height:5 ~prev_hash:(Journal.head_hash j) ~index_root:Hash.null ~time:2
      ~entries:[] ~statements:[]
  in
  Alcotest.check_raises "bad height" (Invalid_argument "Journal.append: wrong height")
    (fun () -> Journal.append j bad_height)

let test_journal_inclusion_and_consistency () =
  let store = Object_store.create () in
  let j = Journal.create store in
  for h = 0 to 19 do
    Journal.append j (make_block j ~height:h sample_entries)
  done;
  let d1 = Journal.digest j in
  for h = 20 to 29 do
    Journal.append j (make_block j ~height:h sample_entries)
  done;
  let d2 = Journal.digest j in
  (* inclusion of every block under the new digest *)
  for h = 0 to 29 do
    Alcotest.(check bool) (Printf.sprintf "block %d" h) true
      (Journal.verify_inclusion ~digest:d2 ~height:h ~header:(Journal.header j h)
         (Journal.prove_inclusion j h))
  done;
  (* consistency between digests *)
  Alcotest.(check bool) "append-only" true
    (Journal.verify_consistency ~old_digest:d1 ~new_digest:d2
       (Journal.prove_consistency j ~old_size:20));
  (* a header from one height does not verify at another *)
  Alcotest.(check bool) "wrong height" false
    (Journal.verify_inclusion ~digest:d2 ~height:3 ~header:(Journal.header j 4)
       (Journal.prove_inclusion j 3))

(* --- ledger --- *)

let test_ledger_commit_get () =
  let l = L.create (Object_store.create ()) in
  let h0 = L.commit l [ Ledger.Put ("a", "1"); Ledger.Put ("b", "2") ] in
  Alcotest.(check int) "first height" 0 h0;
  let get k = L.snap_get (Option.get (L.snapshot l)) k in
  Alcotest.(check (option string)) "a" (Some "1") (get "a");
  Alcotest.(check (option string)) "b" (Some "2") (get "b");
  Alcotest.(check (option string)) "missing" None (get "c");
  let _ = L.commit l [ Ledger.Put ("a", "10"); Ledger.Delete ("b") ] in
  Alcotest.(check (option string)) "a updated" (Some "10") (get "a");
  Alcotest.(check (option string)) "b deleted" None (get "b");
  (* historical reads *)
  let get_at ~height k = L.snap_get (L.snapshot_at l ~height) k in
  Alcotest.(check (option string)) "a at height 0" (Some "1") (get_at ~height:0 "a");
  Alcotest.(check (option string)) "b at height 0" (Some "2") (get_at ~height:0 "b");
  Alcotest.(check bool) "audit" true (L.audit l)

let test_ledger_read_proofs () =
  let l = L.create (Object_store.create ()) in
  for i = 0 to 99 do
    ignore (L.commit l [ Ledger.Put (Printf.sprintf "k%03d" i, Printf.sprintf "v%d" i) ])
  done;
  let digest = L.digest l in
  let value, proof = L.snap_get_with_proof (head l) "k042" in
  Alcotest.(check (option string)) "value" (Some "v42") value;
  Alcotest.(check bool) "verifies" true (L.verify_read ~digest ~key:"k042" ~value proof);
  Alcotest.(check bool) "forged value" false
    (L.verify_read ~digest ~key:"k042" ~value:(Some "other") proof);
  Alcotest.(check bool) "forged absence" false
    (L.verify_read ~digest ~key:"k042" ~value:None proof);
  (* absence *)
  let v2, p2 = L.snap_get_with_proof (head l) "nope" in
  Alcotest.(check bool) "absent" true (v2 = None);
  Alcotest.(check bool) "absence verifies" true
    (L.verify_read ~digest ~key:"nope" ~value:None p2)

let test_ledger_tombstone_proofs () =
  let l = L.create (Object_store.create ()) in
  ignore (L.commit l [ Ledger.Put ("gone", "was-here"); Ledger.Put ("stay", "here") ]);
  ignore (L.commit l [ Ledger.Delete "gone" ]);
  let digest = L.digest l in
  let value, proof = L.snap_get_with_proof (head l) "gone" in
  Alcotest.(check bool) "deleted reads as absent" true (value = None);
  Alcotest.(check bool) "tombstone proof verifies as absence" true
    (L.verify_read ~digest ~key:"gone" ~value:None proof);
  (* a range over the tombstone must still verify *)
  let entries, rp = L.snap_range_with_proof (head l) ~lo:"a" ~hi:"z" in
  Alcotest.(check (list (pair string string))) "only live entries" [ ("stay", "here") ] entries;
  Alcotest.(check bool) "range with tombstone verifies" true
    (L.verify_range ~digest ~lo:"a" ~hi:"z" ~entries rp)

let test_ledger_range_proofs () =
  let l = L.create (Object_store.create ()) in
  ignore
    (L.commit l (List.init 200 (fun i -> Ledger.Put (Printf.sprintf "k%03d" i, string_of_int i))));
  let digest = L.digest l in
  let entries, proof = L.snap_range_with_proof (head l) ~lo:"k050" ~hi:"k059" in
  Alcotest.(check int) "10 entries" 10 (List.length entries);
  Alcotest.(check bool) "verifies" true (L.verify_range ~digest ~lo:"k050" ~hi:"k059" ~entries proof);
  Alcotest.(check bool) "omission detected" false
    (L.verify_range ~digest ~lo:"k050" ~hi:"k059" ~entries:(List.tl entries) proof);
  Alcotest.(check bool) "fabrication detected" false
    (L.verify_range ~digest ~lo:"k050" ~hi:"k059"
       ~entries:(("k0505", "fake") :: entries) proof)

let test_ledger_write_receipts () =
  let l = L.create (Object_store.create ()) in
  let height = L.commit l ~statements:[ "PUT x" ] [ Ledger.Put ("x", "1"); Ledger.Put ("y", "2") ] in
  let receipts = L.write_receipts l ~height in
  Alcotest.(check int) "two receipts" 2 (List.length receipts);
  let digest = L.digest l in
  List.iter
    (fun r -> Alcotest.(check bool) "receipt verifies" true (L.verify_write ~digest r))
    receipts;
  (* tamper with an entry *)
  let r = List.hd receipts in
  let forged = { r with L.wr_entry = { r.L.wr_entry with Block.key = "z" } } in
  Alcotest.(check bool) "forged entry fails" false (L.verify_write ~digest forged)

let test_ledger_instance_sharing () =
  (* index instances across blocks share nodes: committing one key on top of
     a large ledger must store only a path, not a new tree *)
  let store = Object_store.create () in
  let l = L.create store in
  ignore (L.commit l (List.init 2000 (fun i -> Ledger.Put (Printf.sprintf "k%05d" i, "v"))));
  let before = (Object_store.stats store).Object_store.physical_bytes in
  ignore (L.commit l [ Ledger.Put ("k00001", "updated") ]);
  let added = (Object_store.stats store).Object_store.physical_bytes - before in
  Alcotest.(check bool) "block adds a path, not a tree" true (added * 20 < before)

let test_ledger_batch_reads () =
  let l = L.create (Object_store.create ()) in
  for i = 0 to 99 do
    ignore (L.commit l [ Ledger.Put (Printf.sprintf "k%03d" i, Printf.sprintf "v%d" i) ])
  done;
  ignore (L.commit l [ Ledger.Delete "k050" ]);
  let digest = L.digest l in
  let keys = [ "k001"; "k042"; "k050"; "nope"; "k099" ] in
  let values, proof = L.snap_get_batch_with_proof (head l) keys in
  Alcotest.(check (list (option string))) "values"
    [ Some "v1"; Some "v42"; None; None; Some "v99" ]
    values;
  let items = List.combine keys values in
  Alcotest.(check bool) "batch verifies" true (L.verify_batch_read ~digest ~items proof);
  Alcotest.(check bool) "forged value" false
    (L.verify_batch_read ~digest ~items:(("k001", Some "evil") :: List.tl items) proof);
  Alcotest.(check bool) "forged presence of absent key" false
    (L.verify_batch_read ~digest
       ~items:(List.map (fun (k, v) -> (k, if k = "nope" then Some "ghost" else v)) items)
       proof);
  Alcotest.(check bool) "forged absence of present key" false
    (L.verify_batch_read ~digest
       ~items:(List.map (fun (k, v) -> (k, if k = "k042" then None else v)) items)
       proof);
  (* one batch proof serializes smaller than the per-key proofs it replaces *)
  let batch_bytes = String.length (L.encode_batch_proof proof) in
  let sum_bytes =
    List.fold_left
      (fun acc k ->
         let _, p = L.snap_get_with_proof (head l) k in
         acc + String.length (L.encode_read_proof p))
      0 keys
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch proof %dB < %dB per-key" batch_bytes sum_bytes)
    true (batch_bytes < sum_bytes);
  (* wire codec *)
  let decoded = L.decode_batch_proof (L.encode_batch_proof proof) in
  Alcotest.(check bool) "decoded proof still verifies" true
    (L.verify_batch_read ~digest ~items decoded);
  Alcotest.check_raises "trailing bytes rejected"
    (Wire.Malformed "Ledger.decode_batch_proof: trailing bytes")
    (fun () -> ignore (L.decode_batch_proof (L.encode_batch_proof proof ^ "x")));
  (* empty ledger: nothing committed, no proof to give *)
  let e = L.create (Object_store.create ()) in
  Alcotest.(check bool) "empty ledger has no head to prove from" true
    (Option.is_none (L.snapshot e))

(* --- verifier --- *)

let test_verifier_online () =
  let l = L.create (Object_store.create ()) in
  ignore (L.commit l [ Ledger.Put ("a", "1") ]);
  let client = V.create () in
  Alcotest.(check bool) "initial sync" true (V.sync client ~digest:(L.digest l) ~consistency:[]);
  let value, proof = L.snap_get_with_proof (head l) "a" in
  Alcotest.(check (option bool)) "online verify" (Some true)
    (V.submit_read client ~key:"a" ~value proof);
  Alcotest.(check int) "no failures" 0 (V.failures client);
  (* a lying server *)
  Alcotest.(check (option bool)) "lie detected" (Some false)
    (V.submit_read client ~key:"a" ~value:(Some "2") proof);
  Alcotest.(check int) "failure recorded" 1 (V.failures client)

let test_verifier_deferred () =
  let l = L.create (Object_store.create ()) in
  let client = V.create ~mode:(V.Deferred 3) () in
  ignore (L.commit l [ Ledger.Put ("a", "1") ]);
  ignore (V.sync client ~digest:(L.digest l) ~consistency:[]);
  let submit key =
    let value, proof = L.snap_get_with_proof (head l) key in
    V.submit_read client ~key ~value proof
  in
  Alcotest.(check (option bool)) "queued 1" None (submit "a");
  (* the ledger advances; the client re-syncs with a consistency proof *)
  let old = L.digest l in
  ignore (L.commit l [ Ledger.Put ("b", "2") ]);
  Alcotest.(check bool) "consistency sync" true
    (V.sync client ~digest:(L.digest l)
       ~consistency:(Journal.prove_consistency (L.journal l) ~old_size:old.Journal.size));
  Alcotest.(check (option bool)) "queued 2" None (submit "b");
  Alcotest.(check (option bool)) "batch flush verifies all" (Some true) (submit "a");
  Alcotest.(check int) "three checked" 3 (V.checked client);
  Alcotest.(check int) "no failures" 0 (V.failures client)

let test_verifier_deferred_batch_fill () =
  (* the nth submission fills the batch and triggers verification *)
  let l = L.create (Object_store.create ()) in
  ignore (L.commit l [ Ledger.Put ("a", "1"); Ledger.Put ("b", "2"); Ledger.Put ("c", "3") ]);
  let client = V.create ~mode:(V.Deferred 3) () in
  ignore (V.sync client ~digest:(L.digest l) ~consistency:[]);
  let submit key =
    let value, proof = L.snap_get_with_proof (head l) key in
    V.submit_read client ~key ~value proof
  in
  Alcotest.(check (option bool)) "queued a" None (submit "a");
  Alcotest.(check (option bool)) "queued b" None (submit "b");
  Alcotest.(check int) "nothing checked while queued" 0 (V.checked client);
  Alcotest.(check (option bool)) "third fills the batch" (Some true) (submit "c");
  Alcotest.(check int) "three checked" 3 (V.checked client);
  Alcotest.(check int) "no failures" 0 (V.failures client)

let test_verifier_deferred_partial_flush () =
  let l = L.create (Object_store.create ()) in
  ignore (L.commit l [ Ledger.Put ("a", "1"); Ledger.Put ("b", "2") ]);
  let client = V.create ~mode:(V.Deferred 10) () in
  ignore (V.sync client ~digest:(L.digest l) ~consistency:[]);
  let submit key =
    let value, proof = L.snap_get_with_proof (head l) key in
    V.submit_read client ~key ~value proof
  in
  Alcotest.(check (option bool)) "queued a" None (submit "a");
  Alcotest.(check (option bool)) "queued b" None (submit "b");
  Alcotest.(check bool) "partial batch flushes clean" true (V.flush client);
  Alcotest.(check int) "two checked" 2 (V.checked client);
  Alcotest.(check int) "no failures" 0 (V.failures client);
  Alcotest.(check bool) "empty flush is vacuously true" true (V.flush client);
  (* a claim proven in an earlier flush is served from the verified cache *)
  Alcotest.(check (option bool)) "re-queued" None (submit "a");
  Alcotest.(check bool) "cached claim still verifies" true (V.flush client);
  Alcotest.(check int) "re-check counted" 3 (V.checked client)

let test_verifier_deferred_tamper () =
  let l = L.create (Object_store.create ()) in
  ignore (L.commit l [ Ledger.Put ("a", "1"); Ledger.Put ("b", "2") ]);
  let client = V.create ~mode:(V.Deferred 10) () in
  ignore (V.sync client ~digest:(L.digest l) ~consistency:[]);
  let va, pa = L.snap_get_with_proof (head l) "a" in
  ignore (V.submit_read client ~key:"a" ~value:va pa);
  let _, pb = L.snap_get_with_proof (head l) "b" in
  ignore (V.submit_read client ~key:"b" ~value:(Some "lie") pb);
  Alcotest.(check bool) "tampered claim fails the flush" false (V.flush client);
  Alcotest.(check int) "both checked" 2 (V.checked client);
  Alcotest.(check int) "one failure" 1 (V.failures client);
  (* the honest claim is unaffected: it verifies again on its own *)
  ignore (V.submit_read client ~key:"a" ~value:va pa);
  Alcotest.(check bool) "honest claim clean after failed batch" true (V.flush client)

let test_verifier_sync_rejects_non_append_only () =
  let l = L.create (Object_store.create ()) in
  ignore (L.commit l [ Ledger.Put ("a", "1") ]);
  let client = V.create ~mode:(V.Deferred 4) () in
  ignore (V.sync client ~digest:(L.digest l) ~consistency:[]);
  let pinned = V.digest client in
  (* a forked history that rewrote block 0 is not an append-only extension *)
  let fork = L.create (Object_store.create ()) in
  ignore (L.commit fork [ Ledger.Put ("a", "EVIL") ]);
  ignore (L.commit fork [ Ledger.Put ("b", "2") ]);
  Alcotest.(check bool) "non-append-only history rejected" false
    (V.sync client ~digest:(L.digest fork)
       ~consistency:(Journal.prove_consistency (L.journal fork) ~old_size:1));
  Alcotest.(check int) "failure recorded" 1 (V.failures client);
  Alcotest.(check bool) "pin unchanged" true (V.digest client = pinned)

let test_verifier_deferred_flush () =
  (* one deferred flush over reads, a range and write receipts: one lie
     sinks the flush, and every check is counted once *)
  let l = L.create (Object_store.create ()) in
  for i = 0 to 29 do
    ignore (L.commit l [ Ledger.Put (Printf.sprintf "k%02d" i, Printf.sprintf "v%d" i) ])
  done;
  let digest = L.digest l in
  let client = V.create ~mode:(V.Deferred 100) () in
  ignore (V.sync client ~digest ~consistency:[]);
  for i = 0 to 9 do
    let key = Printf.sprintf "k%02d" i in
    let value, proof = L.snap_get_with_proof (head l) key in
    let value = if i = 7 then Some "lie" else value in
    ignore (V.submit_read client ~key ~value proof)
  done;
  let entries, rp = L.snap_range_with_proof (head l) ~lo:"k00" ~hi:"k05" in
  ignore (V.submit_range client ~lo:"k00" ~hi:"k05" ~entries rp);
  List.iter (fun r -> ignore (V.submit_write client r)) (L.write_receipts l ~height:3);
  Alcotest.(check bool) "the lie sinks the flush" false (V.flush client);
  Alcotest.(check int) "all checks counted" 12 (V.checked client);
  Alcotest.(check int) "exactly one failure" 1 (V.failures client)

let test_verifier_rejects_inconsistent_digest () =
  let l1 = L.create (Object_store.create ()) in
  let l2 = L.create (Object_store.create ()) in
  ignore (L.commit l1 [ Ledger.Put ("a", "1") ]);
  ignore (L.commit l2 [ Ledger.Put ("a", "EVIL") ]);
  let client = V.create () in
  ignore (V.sync client ~digest:(L.digest l1) ~consistency:[]);
  (* a digest from a different history cannot be synced in *)
  ignore (L.commit l2 [ Ledger.Put ("b", "2") ]);
  Alcotest.(check bool) "fork detected" false
    (V.sync client ~digest:(L.digest l2)
       ~consistency:(Journal.prove_consistency (L.journal l2) ~old_size:1));
  Alcotest.(check int) "failure recorded" 1 (V.failures client)

let suite =
  [
    Alcotest.test_case "block roundtrip" `Quick test_block_roundtrip;
    Alcotest.test_case "block header commits entries" `Quick test_block_header_commits_entries;
    Alcotest.test_case "journal chain" `Quick test_journal_chain;
    Alcotest.test_case "journal rejects bad links" `Quick test_journal_rejects_bad_links;
    Alcotest.test_case "journal inclusion+consistency" `Quick test_journal_inclusion_and_consistency;
    Alcotest.test_case "ledger commit/get" `Quick test_ledger_commit_get;
    Alcotest.test_case "ledger read proofs" `Quick test_ledger_read_proofs;
    Alcotest.test_case "ledger tombstone proofs" `Quick test_ledger_tombstone_proofs;
    Alcotest.test_case "ledger range proofs" `Quick test_ledger_range_proofs;
    Alcotest.test_case "ledger write receipts" `Quick test_ledger_write_receipts;
    Alcotest.test_case "ledger instance sharing" `Quick test_ledger_instance_sharing;
    Alcotest.test_case "ledger batch reads" `Quick test_ledger_batch_reads;
    Alcotest.test_case "verifier online" `Quick test_verifier_online;
    Alcotest.test_case "verifier deferred" `Quick test_verifier_deferred;
    Alcotest.test_case "verifier deferred batch fill" `Quick test_verifier_deferred_batch_fill;
    Alcotest.test_case "verifier deferred partial flush" `Quick test_verifier_deferred_partial_flush;
    Alcotest.test_case "verifier deferred tamper" `Quick test_verifier_deferred_tamper;
    Alcotest.test_case "verifier sync rejects rewrite" `Quick
      test_verifier_sync_rejects_non_append_only;
    Alcotest.test_case "verifier deferred flush" `Quick test_verifier_deferred_flush;
    Alcotest.test_case "verifier rejects forks" `Quick test_verifier_rejects_inconsistent_digest;
  ]

(* --- the ledger functor must work over every SIRI instance --- *)

module Ledger_conformance (Index : Spitz_adt.Siri.S) = struct
  module LX = Ledger.Make (Index)

  let test () =
    let l = LX.create (Object_store.create ()) in
    for i = 0 to 49 do
      ignore (LX.commit l [ Ledger.Put (Printf.sprintf "k%02d" i, Printf.sprintf "v%d" i) ])
    done;
    ignore (LX.commit l [ Ledger.Delete "k07" ]);
    let digest = LX.digest l in
    (* point + tombstone *)
    let head = Option.get (LX.snapshot l) in
    let v, p = LX.snap_get_with_proof head "k03" in
    Alcotest.(check bool) (Index.name ^ ": read verifies") true
      (LX.verify_read ~digest ~key:"k03" ~value:v p);
    let v7, p7 = LX.snap_get_with_proof head "k07" in
    Alcotest.(check bool) (Index.name ^ ": tombstone absent") true (v7 = None);
    Alcotest.(check bool) (Index.name ^ ": tombstone verifies") true
      (LX.verify_read ~digest ~key:"k07" ~value:None p7);
    (* range *)
    let entries, rp = LX.snap_range_with_proof head ~lo:"k00" ~hi:"k09" in
    Alcotest.(check int) (Index.name ^ ": range size") 9 (List.length entries);
    Alcotest.(check bool) (Index.name ^ ": range verifies") true
      (LX.verify_range ~digest ~lo:"k00" ~hi:"k09" ~entries rp);
    (* receipts *)
    let height = LX.commit l [ Ledger.Put ("new", "x") ] in
    let digest = LX.digest l in
    List.iter
      (fun r ->
         Alcotest.(check bool) (Index.name ^ ": receipt verifies") true
           (LX.verify_write ~digest r))
      (LX.write_receipts l ~height);
    (* batched reads: present, tombstoned, and absent keys under one proof *)
    let bkeys = [ "k01"; "k07"; "zz"; "k40" ] in
    let bvals, bp = LX.snap_get_batch_with_proof (Option.get (LX.snapshot l)) bkeys in
    Alcotest.(check (list (option string))) (Index.name ^ ": batch values")
      [ Some "v1"; None; None; Some "v40" ]
      bvals;
    let items = List.combine bkeys bvals in
    Alcotest.(check bool) (Index.name ^ ": batch verifies") true
      (LX.verify_batch_read ~digest ~items bp);
    Alcotest.(check bool) (Index.name ^ ": batch forgery fails") false
      (LX.verify_batch_read ~digest ~items:(("k01", Some "evil") :: List.tl items) bp);
    Alcotest.(check bool) (Index.name ^ ": batch codec roundtrip") true
      (LX.verify_batch_read ~digest ~items
         (LX.decode_batch_proof (LX.encode_batch_proof bp)));
    Alcotest.(check bool) (Index.name ^ ": audit") true (LX.audit l)
end

module Ledger_pos = Ledger_conformance (Spitz_adt.Pos_tree)
module Ledger_mpt = Ledger_conformance (Spitz_adt.Mpt)
module Ledger_mbt = Ledger_conformance (Spitz_adt.Mbt)

let suite =
  suite
  @ [
      Alcotest.test_case "ledger over pos-tree" `Quick Ledger_pos.test;
      Alcotest.test_case "ledger over mpt" `Quick Ledger_mpt.test;
      Alcotest.test_case "ledger over mbt" `Quick Ledger_mbt.test;
    ]
