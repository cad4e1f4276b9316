open Spitz
module Hash = Spitz_crypto.Hash

(* --- cell store --- *)

(* A cell is keyed [column \000 pk], so a write naming either with a NUL
   is refused, a reopen's restore included. *)
let test_cell_store_rejects_nul () =
  let cs = Cell_store.create () in
  Alcotest.check_raises "nul in column" (Invalid_argument "Cell_store: column contains NUL")
    (fun () -> Cell_store.write_cell cs ~column:"c\x00" ~pk:"a" ~ts:0 "x");
  Alcotest.check_raises "nul in pk" (Invalid_argument "Cell_store: pk contains NUL")
    (fun () -> Cell_store.delete_cell cs ~column:"c" ~pk:"a\x00b" ~ts:0);
  Alcotest.check_raises "nul in a restored pk" (Invalid_argument "Cell_store: pk contains NUL")
    (fun () -> Cell_store.restore_version cs ~column:"c" ~pk:"\x00" ~ts:0 (fun () -> None));
  Alcotest.(check int) "nothing stored" 0 (Cell_store.cell_count cs)

let test_cell_store_versions () =
  let cs = Cell_store.create () in
  Cell_store.write_cell cs ~column:"v" ~pk:"k" ~ts:1 "one";
  Cell_store.write_cell cs ~column:"v" ~pk:"k" ~ts:5 "five";
  Cell_store.write_cell cs ~column:"v" ~pk:"other" ~ts:3 "x";
  Alcotest.(check (option string)) "latest" (Some "five") (Cell_store.read_value cs ~column:"v" ~pk:"k");
  Alcotest.(check (option string)) "at ts 1" (Some "one")
    (Cell_store.read_value ~ts:1 cs ~column:"v" ~pk:"k");
  Alcotest.(check (option string)) "at ts 4" (Some "one")
    (Cell_store.read_value ~ts:4 cs ~column:"v" ~pk:"k");
  Alcotest.(check (option string)) "before first" None
    (Cell_store.read_value ~ts:0 cs ~column:"v" ~pk:"k");
  Alcotest.(check int) "versions" 2 (List.length (Cell_store.versions cs ~column:"v" ~pk:"k"));
  Alcotest.(check int) "cells" 3 (Cell_store.cell_count cs)

(* A column scan is a range over the ledger's head index: the column's keys
   [column\x1fpk] in pk order, latest live values only. [scan] strips the
   column prefix off each key. *)
let scan db column ~pk_lo ~pk_hi =
  let prefix = column ^ "\x1f" in
  let n = String.length prefix in
  List.map
    (fun (key, v) -> (String.sub key n (String.length key - n), v))
    (Db.range db ~lo:(prefix ^ pk_lo) ~hi:(prefix ^ pk_hi))

(* A pk that extends another ("k", "kk") is a different cell: neither its
   versions nor its range entry leak into the shorter pk's. *)
let test_cell_store_prefix_pks () =
  let db = Db.open_db () in
  ignore (Db.put db "c\x1fk" "k1");
  ignore (Db.put db "c\x1fkk" "kk5");
  ignore (Db.put db "cc\x1fk" "cc7");
  let cs = Db.cells db in
  Alcotest.(check (option string)) "own latest" (Some "k1") (Cell_store.read_value cs ~column:"c" ~pk:"k");
  Alcotest.(check int) "own versions" 1 (List.length (Cell_store.versions cs ~column:"c" ~pk:"k"));
  Alcotest.(check (list (pair string string))) "range of one pk" [ ("k", "k1") ]
    (scan db "c" ~pk_lo:"k" ~pk_hi:"k");
  Alcotest.(check (list (pair string string))) "range of a column" [ ("k", "k1"); ("kk", "kk5") ]
    (scan db "c" ~pk_lo:"" ~pk_hi:"z");
  Alcotest.check_raises "nul in pk" (Invalid_argument "Cell_store: pk contains NUL")
    (fun () -> Cell_store.write_cell cs ~column:"c" ~pk:"a\x00b" ~ts:0 "x")

let test_cell_store_range () =
  let db = Db.open_db () in
  List.iter
    (fun batch -> ignore (Db.put_batch db (List.map (fun (pk, v) -> ("v\x1f" ^ pk, v)) batch)))
    [ [ ("a", "a1"); ("b", "b1"); ("c", "c1") ]; [ ("a", "a2") ]; [ ("c", "c3") ] ];
  let latest = scan db "v" ~pk_lo:"a" ~pk_hi:"c" in
  Alcotest.(check (list (pair string string))) "latest per pk"
    [ ("a", "a2"); ("b", "b1"); ("c", "c3") ]
    latest

(* --- the Db facade --- *)

let test_db_end_to_end () =
  let db = Db.open_db () in
  for i = 0 to 499 do
    ignore (Db.put db (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i))
  done;
  Alcotest.(check (option string)) "get" (Some "v42") (Db.get db "k042");
  Alcotest.(check (option string)) "missing" None (Db.get db "zzz");
  let digest = Db.digest db in
  (* verified point read *)
  let value, proof = Db.get_verified db "k042" in
  Alcotest.(check bool) "verified read" true
    (Db.verify_read ~digest ~key:"k042" ~value (Option.get proof));
  Alcotest.(check bool) "lie rejected" false
    (Db.verify_read ~digest ~key:"k042" ~value:(Some "evil") (Option.get proof));
  (* verified range *)
  let entries, rp = Db.range_verified db ~lo:"k100" ~hi:"k109" in
  Alcotest.(check int) "10 rows" 10 (List.length entries);
  Alcotest.(check bool) "range verifies" true
    (Db.verify_range ~digest ~lo:"k100" ~hi:"k109" ~entries (Option.get rp));
  (* unverified range agrees *)
  Alcotest.(check bool) "plain range agrees" true (Db.range db ~lo:"k100" ~hi:"k109" = entries);
  Alcotest.(check bool) "audit" true (Db.audit db)

let test_db_history_and_snapshots () =
  let db = Db.open_db () in
  let h1 = Db.put db "k" "v1" in
  ignore (Db.put db "other" "x");
  let h2 = Db.put db "k" "v2" in
  Alcotest.(check (option string)) "latest" (Some "v2") (Db.get db "k");
  Alcotest.(check (option string)) "at h1" (Some "v1") (Db.get_at db ~height:h1 "k");
  Alcotest.(check (option string)) "at h2" (Some "v2") (Db.get_at db ~height:h2 "k");
  Alcotest.(check (list (pair int string))) "history" [ (h1, "v1"); (h2, "v2") ] (Db.history db "k")

let test_db_write_receipts () =
  let db = Db.open_db () in
  ignore (Db.put db "setup" "x");
  let _, receipt = Db.put_verified db "k" "v" in
  Alcotest.(check bool) "receipt verifies" true
    (Db.verify_write ~digest:(Db.digest db) receipt)

let test_db_batch () =
  let db = Db.open_db () in
  let height = Db.put_batch db ~statements:[ "bulk load" ] [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  Alcotest.(check int) "one block" 0 height;
  Alcotest.(check (option string)) "a" (Some "1") (Db.get db "a");
  Alcotest.(check (option string)) "c" (Some "3") (Db.get db "c");
  let receipts = Db.L.write_receipts (Db.ledger db) ~height in
  Alcotest.(check int) "three receipts" 3 (List.length receipts)

let test_db_consistency_protocol () =
  let db = Db.open_db () in
  ignore (Db.put db "a" "1");
  let d1 = Db.digest db in
  ignore (Db.put db "b" "2");
  ignore (Db.put db "c" "3");
  let d2 = Db.digest db in
  let proof = Db.consistency db ~old_size:d1.Spitz_ledger.Journal.size in
  Alcotest.(check bool) "append-only" true
    (Spitz_ledger.Journal.verify_consistency ~old_digest:d1 ~new_digest:d2 proof)

(* tampering with the stored value must be caught by the verified read *)
let test_db_detects_tampering () =
  let db = Db.open_db () in
  for i = 0 to 99 do
    ignore (Db.put db (Printf.sprintf "k%02d" i) "honest")
  done;
  let digest = Db.digest db in
  let value, proof = Db.get_verified db "k50" in
  Alcotest.(check bool) "baseline verifies" true
    (Db.verify_read ~digest ~key:"k50" ~value (Option.get proof));
  (* a server serving a different value with the same proof is caught *)
  Alcotest.(check bool) "tampered value caught" false
    (Db.verify_read ~digest ~key:"k50" ~value:(Some "tampered") (Option.get proof));
  (* a server serving a stale digest is caught by consistency checking in the
     verifier; here we check a proof from another database entirely *)
  let other = Db.open_db () in
  ignore (Db.put other "k50" "tampered");
  let v2, p2 = Db.get_verified other "k50" in
  Alcotest.(check bool) "foreign proof rejected" false
    (Db.verify_read ~digest ~key:"k50" ~value:v2 (Option.get p2))

(* --- snapshot reads: the concurrent read path --- *)

let test_db_snapshot_pins_state () =
  let db = Db.open_db () in
  for i = 0 to 49 do
    ignore (Db.put db (Printf.sprintf "k%02d" i) (Printf.sprintf "v%d" i))
  done;
  let s = Option.get (Db.snapshot db) in
  let pinned_height = Db.Snapshot.height s in
  let pinned_digest = Db.Snapshot.digest s in
  (* the ledger moves on; the snapshot must not *)
  ignore (Db.put db "k10" "overwritten");
  ignore (Db.delete db "k20");
  Alcotest.(check int) "height pinned" pinned_height (Db.Snapshot.height s);
  Alcotest.(check (option string)) "k10 pre-overwrite" (Some "v10") (Db.Snapshot.get s "k10");
  Alcotest.(check (option string)) "k20 pre-delete" (Some "v20") (Db.Snapshot.get s "k20");
  Alcotest.(check (option string)) "head sees overwrite" (Some "overwritten") (Db.get db "k10");
  (* proofs verify against the pinned digest, not the moved-on head *)
  let v, p = Db.Snapshot.get_verified s "k10" in
  Alcotest.(check (option string)) "verified value" (Some "v10") v;
  Alcotest.(check bool) "verifies under pinned digest" true
    (Db.verify_read ~digest:pinned_digest ~key:"k10" ~value:v p);
  Alcotest.(check bool) "rejected under moved-on digest" false
    (Db.verify_read ~digest:(Db.digest db) ~key:"k10" ~value:v p);
  (* batch + range from the pinned state *)
  let keys = [ "k05"; "k20"; "zzz" ] in
  let vs, bp = Db.Snapshot.get_batch_verified s keys in
  Alcotest.(check (list (option string))) "batch values"
    [ Some "v5"; Some "v20"; None ] vs;
  Alcotest.(check bool) "batch verifies" true
    (Db.verify_batch_read ~digest:pinned_digest ~items:(List.combine keys vs) bp);
  let entries, rp = Db.Snapshot.range_verified s ~lo:"k18" ~hi:"k22" in
  Alcotest.(check int) "range rows" 5 (List.length entries);
  Alcotest.(check bool) "range verifies" true
    (Db.verify_range ~digest:pinned_digest ~lo:"k18" ~hi:"k22" ~entries rp)

let test_db_snapshot_at_height () =
  let db = Db.open_db () in
  let h1 = Db.put db "k" "v1" in
  ignore (Db.put db "k" "v2");
  let s = Option.get (Db.snapshot ~height:h1 db) in
  Alcotest.(check int) "pinned height" h1 (Db.Snapshot.height s);
  Alcotest.(check (option string)) "value at h1" (Some "v1") (Db.Snapshot.get s "k");
  let v, p = Db.Snapshot.get_verified s "k" in
  Alcotest.(check bool) "proof under pinned digest" true
    (Db.verify_read ~digest:(Db.Snapshot.digest s) ~key:"k" ~value:v p);
  Alcotest.(check bool) "out of range raises" true
    (match Db.snapshot ~height:99 db with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Pinning the head by height is the lock-free head itself; it must answer
   exactly what the journal-walking pin of the same block answers. A twin
   database one block ahead rebuilds that pin from its journal. *)
let test_db_snapshot_head_pin () =
  let fill db =
    for i = 0 to 63 do
      ignore (Db.put db (Printf.sprintf "k%02d" i) (Printf.sprintf "v%d" i))
    done
  in
  let db = Db.open_db () and twin = Db.open_db () in
  fill db;
  fill twin;
  ignore (Db.put twin "later" "block");
  let height = Db.L.height (Db.ledger db) - 1 in
  let head = Option.get (Db.snapshot db) in
  let by_height = Option.get (Db.snapshot ~height db) in
  let rebuilt = Option.get (Db.snapshot ~height twin) in
  let encoded s =
    let _, gp = Db.Snapshot.get_verified s "k17" in
    let _, rp = Db.Snapshot.range_verified s ~lo:"k10" ~hi:"k20" in
    let _, bp = Db.Snapshot.get_batch_verified s [ "k03"; "absent"; "k40" ] in
    [ Db.L.encode_read_proof gp; Db.L.encode_read_proof rp; Db.L.encode_batch_proof bp ]
  in
  Alcotest.(check (list string)) "head pin by height = head" (encoded head) (encoded by_height);
  Alcotest.(check (list string)) "head pin = rebuilt pin of the same block" (encoded rebuilt)
    (encoded by_height)

let test_db_snapshot_at_anchors_own_height () =
  (* regression: a historical snapshot must anchor its proofs at the digest
     as of the pinned block — not whatever the head happens to be at pin
     time. A client that pinned the digest at height h verifies reads
     against it no matter how far the chain has since grown. *)
  let db = Db.open_db () in
  let h = Db.put db "k" "v1" in
  ignore (Db.put db "j" "w");
  let pinned = Db.digest db in
  (* the chain grows well past the pin before the snapshot is taken *)
  for i = 0 to 8 do
    ignore (Db.put db "k" (Printf.sprintf "v%d" (i + 2)))
  done;
  let s = Option.get (Db.snapshot ~height:(h + 1) db) in
  Alcotest.(check int) "snapshot digest size = height + 1"
    (h + 2) (Db.Snapshot.digest s).Spitz_ledger.Journal.size;
  Alcotest.(check bool) "snapshot digest = digest pinned back then" true
    (Db.Snapshot.digest s = pinned);
  let v, p = Db.Snapshot.get_verified s "k" in
  Alcotest.(check (option string)) "historical value" (Some "v1") v;
  Alcotest.(check bool) "proof verifies under the client's old pin" true
    (Db.verify_read ~digest:pinned ~key:"k" ~value:v p);
  Alcotest.(check bool) "proof rejected under the moved-on head" false
    (Db.verify_read ~digest:(Db.digest db) ~key:"k" ~value:v p);
  let keys = [ "j"; "k"; "zzz" ] in
  let vs, bp = Db.Snapshot.get_batch_verified s keys in
  Alcotest.(check bool) "batch proof verifies under the old pin" true
    (Db.verify_batch_read ~digest:pinned ~items:(List.combine keys vs) bp)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A durable handle keeps the newest [Db.retained_instances] (64) index
   instances: the pin at block 63 stays valid until block 127 commits. *)
let test_db_snapshot_validity () =
  let dir = Filename.temp_file "spitz_core" ".dir" in
  Sys.remove dir;
  let d = Db.open_durable ~sync:Spitz_storage.Wal.Never dir in
  Fun.protect
    ~finally:(fun () ->
        Db.close_durable d;
        rm_rf dir)
  @@ fun () ->
  let db = Db.durable_db d in
  for i = 0 to 63 do
    ignore (Db.put db (Printf.sprintf "k%02d" i) (String.make 64 'x'))
  done;
  let s = Option.get (Db.snapshot db) in
  Alcotest.(check bool) "valid at pin time" true (Db.Snapshot.valid db s);
  ignore (Db.put db "more" "y");
  Alcotest.(check bool) "additions don't invalidate" true (Db.Snapshot.valid db s);
  for i = 65 to 126 do
    ignore (Db.put db (Printf.sprintf "k%02d" (i mod 64)) (string_of_int i))
  done;
  Alcotest.(check bool) "the window deleted something" true
    ((Db.retention_stats db).Db.reclaimed_nodes > 0);
  Alcotest.(check int) "horizon" 63 (Db.horizon db);
  Alcotest.(check bool) "a pin at the horizon stays valid" true (Db.Snapshot.valid db s);
  let v, p = Db.Snapshot.get_verified s "k05" in
  Alcotest.(check bool) "and reads verify" true
    (Db.verify_read ~digest:(Db.Snapshot.digest s) ~key:"k05" ~value:v p);
  ignore (Db.put db "one more" "z");
  Alcotest.(check bool) "a pin below the horizon is invalid" false (Db.Snapshot.valid db s)

let test_db_proof_cache () =
  let module NC = Spitz_storage.Node_cache in
  let db = Db.open_db () in
  for i = 0 to 99 do
    ignore (Db.put db (Printf.sprintf "k%02d" i) "x")
  done;
  let s = Option.get (Db.snapshot db) in
  Db.reset_proof_cache_stats ();
  let _ = Db.Snapshot.get_verified s "k42" in
  let st1 = Db.proof_cache_stats () in
  Alcotest.(check bool) "first build misses" true (st1.NC.misses >= 1);
  let v1, p1 = Db.Snapshot.get_verified s "k42" in
  let st2 = Db.proof_cache_stats () in
  Alcotest.(check bool) "repeat read hits" true (st2.NC.hits > st1.NC.hits);
  Alcotest.(check bool) "cached proof verifies" true
    (Db.verify_read ~digest:(Db.Snapshot.digest s) ~key:"k42" ~value:v1 p1);
  (* a commit moves the root; same key under the new root is a fresh cache
     entry (content addressing is the invalidation protocol) *)
  ignore (Db.put db "k42" "y");
  let s2 = Option.get (Db.snapshot db) in
  let before = Db.proof_cache_stats () in
  let v2, p2 = Db.Snapshot.get_verified s2 "k42" in
  let after = Db.proof_cache_stats () in
  Alcotest.(check bool) "new root misses" true (after.NC.misses > before.NC.misses);
  Alcotest.(check (option string)) "new value" (Some "y") v2;
  Alcotest.(check bool) "new proof verifies" true
    (Db.verify_read ~digest:(Db.Snapshot.digest s2) ~key:"k42" ~value:v2 p2);
  (* the old snapshot's cached proof is still served and still correct *)
  let v1', p1' = Db.Snapshot.get_verified s "k42" in
  Alcotest.(check (option string)) "old snapshot still v1" (Some "x") v1';
  Alcotest.(check bool) "old proof still verifies" true
    (Db.verify_read ~digest:(Db.Snapshot.digest s) ~key:"k42" ~value:v1' p1');
  (* batch and range construction are memoized too *)
  let keys = [ "k01"; "k02"; "k03" ] in
  let _ = Db.Snapshot.get_batch_verified s2 keys in
  let b1 = Db.proof_cache_stats () in
  let vs, bp = Db.Snapshot.get_batch_verified s2 keys in
  let b2 = Db.proof_cache_stats () in
  Alcotest.(check bool) "batch repeat hits" true (b2.NC.hits > b1.NC.hits);
  Alcotest.(check bool) "batch proof verifies" true
    (Db.verify_batch_read ~digest:(Db.Snapshot.digest s2)
       ~items:(List.combine keys vs) bp);
  let _ = Db.Snapshot.range_verified s2 ~lo:"k10" ~hi:"k15" in
  let r1 = Db.proof_cache_stats () in
  let entries, rp = Db.Snapshot.range_verified s2 ~lo:"k10" ~hi:"k15" in
  let r2 = Db.proof_cache_stats () in
  Alcotest.(check bool) "range repeat hits" true (r2.NC.hits > r1.NC.hits);
  Alcotest.(check bool) "range proof verifies" true
    (Db.verify_range ~digest:(Db.Snapshot.digest s2) ~lo:"k10" ~hi:"k15" ~entries rp)

(* Regression for the torn head read: the old read path loaded the journal
   length and the instances slot as two separate reads, so a reader racing a
   commit could observe height N+1 with the instance of height N. The head is
   now published as one atomic record — a pinned snapshot's digest size and
   height always agree, and its proof always verifies, mid-commit or not. *)
let test_db_snapshot_atomic_under_commits () =
  let db = Db.open_db () in
  ignore (Db.put db "seed" "0");
  let stop = Atomic.make false in
  let committer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          ignore (Db.put db (Printf.sprintf "c%d" !i) "x");
          incr i
        done;
        !i)
  in
  let bad = ref 0 in
  for _ = 1 to 500 do
    match Db.snapshot db with
    | None -> incr bad
    | Some s ->
      let h = Db.Snapshot.height s in
      let d = Db.Snapshot.digest s in
      if d.Spitz_ledger.Journal.size <> h + 1 then incr bad;
      let v, p = Db.Snapshot.get_verified s "seed" in
      if v <> Some "0" then incr bad;
      if not (Db.verify_read ~digest:d ~key:"seed" ~value:v p) then incr bad
  done;
  (* on a single-core box the snapshot loop can finish before the committer
     domain is scheduled at all: give it until it has provably run *)
  while (Db.digest db).Spitz_ledger.Journal.size < 2 do
    Domain.cpu_relax ()
  done;
  Atomic.set stop true;
  let commits = Domain.join committer in
  Alcotest.(check int) "no torn snapshot observed" 0 !bad;
  Alcotest.(check bool) "committer progressed" true (commits > 0)

(* [Db.get] answers from the cell store while a committer inserts into it,
   as the server's accept domains do: a reader must never see a B+-tree
   node half rewritten, so every key stored before the race reads back. *)
let test_db_get_races_commits () =
  let db = Db.open_db () in
  let rng = Random.State.make [| 31 |] in
  let key tag = Printf.sprintf "%08x-%s" (Random.State.bits rng) tag in
  let stored = Array.init 1024 (fun _ -> key "s") in
  ignore (Db.put_batch db (Array.to_list (Array.map (fun k -> (k, k)) stored)));
  let fresh = Array.init 600 (fun _ -> List.init 16 (fun _ -> (key "n", "x"))) in
  let done_ = Atomic.make false in
  let committer =
    Domain.spawn (fun () ->
        Array.iter (fun batch -> ignore (Db.put_batch db batch)) fresh;
        Atomic.set done_ true)
  in
  let bad = ref 0 and reads = ref 0 in
  while not (Atomic.get done_) do
    let k = stored.(!reads land 1023) in
    (match Db.get db k with
     | Some v when String.equal v k -> ()
     | Some _ | None -> incr bad
     | exception _ -> incr bad);
    incr reads
  done;
  Domain.join committer;
  Alcotest.(check int) "no missed or failed read" 0 !bad;
  Alcotest.(check bool) "every stored key still reads" true
    (Array.for_all (fun k -> Db.get db k = Some k) stored)

(* A batch takes each node it supersedes out of the decoded-node cache and
   caches only the internal nodes it saves, so after commits with no reads
   every cached node is a node of the head's index instance. *)
let test_db_node_cache_holds_head_nodes () =
  let module NC = Spitz_storage.Node_cache in
  let db = Db.open_db () in
  let key i = Printf.sprintf "k%05d" i in
  ignore (Db.put_batch db (List.init 2048 (fun i -> (key i, "v"))));
  NC.clear Spitz_adt.Kv_node.cache;
  let rng = Random.State.make [| 5 |] in
  for c = 1 to 64 do
    ignore
      (Db.put_batch db
         (List.init 16 (fun _ -> (key (Random.State.int rng 4096), string_of_int c))))
  done;
  let cached = NC.length Spitz_adt.Kv_node.cache in
  let head_cached = ref 0 in
  (match Db.snapshot db with
   | None -> Alcotest.fail "empty database"
   | Some s ->
     Spitz_adt.Merkle_bptree.iter_nodes (Db.store db) (Db.Snapshot.index_root s) (fun h ->
         if NC.find Spitz_adt.Kv_node.cache h <> None then incr head_cached));
  Alcotest.(check bool) "the commits cached nodes" true (cached > 0);
  Alcotest.(check int) "every cached node is a head node" cached !head_cached

let suite =
  [
    Alcotest.test_case "cell store rejects NUL" `Quick test_cell_store_rejects_nul;
    Alcotest.test_case "cell store versions" `Quick test_cell_store_versions;
    Alcotest.test_case "cell store range" `Quick test_cell_store_range;
    Alcotest.test_case "cell store keeps prefix pks apart" `Quick test_cell_store_prefix_pks;
    Alcotest.test_case "db end to end" `Quick test_db_end_to_end;
    Alcotest.test_case "db get races commits" `Quick test_db_get_races_commits;
    Alcotest.test_case "db node cache holds only head nodes" `Quick
      test_db_node_cache_holds_head_nodes;
    Alcotest.test_case "db history + snapshots" `Quick test_db_history_and_snapshots;
    Alcotest.test_case "db write receipts" `Quick test_db_write_receipts;
    Alcotest.test_case "db batch" `Quick test_db_batch;
    Alcotest.test_case "db consistency protocol" `Quick test_db_consistency_protocol;
    Alcotest.test_case "db detects tampering" `Quick test_db_detects_tampering;
    Alcotest.test_case "db snapshot pins state" `Quick test_db_snapshot_pins_state;
    Alcotest.test_case "db snapshot at height" `Quick test_db_snapshot_at_height;
    Alcotest.test_case "db snapshot head pin by height" `Quick test_db_snapshot_head_pin;
    Alcotest.test_case "db snapshot anchors at its own height" `Quick
      test_db_snapshot_at_anchors_own_height;
    Alcotest.test_case "db snapshot validity" `Quick test_db_snapshot_validity;
    Alcotest.test_case "db proof cache" `Quick test_db_proof_cache;
    Alcotest.test_case "db snapshot atomic under commits" `Quick
      test_db_snapshot_atomic_under_commits;
  ]
