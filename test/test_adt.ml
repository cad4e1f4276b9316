open Spitz_adt
open Spitz_storage
module Hash = Spitz_crypto.Hash
module SM = Map.Make (String)

let key_of i = Printf.sprintf "key%06d" i
let entries n = List.init n (fun i -> (key_of i, "val-" ^ key_of i))

(* Generic conformance tests run against every SIRI implementation. *)
module Conformance (S : Siri.S) = struct
  let build n =
    let store = Object_store.create () in
    List.fold_left (fun t (k, v) -> S.insert t k v) (S.create store) (entries n)

  let test_empty () =
    (* MBT materializes its empty bucket tree, so its empty digest is a real
       root rather than null; what every implementation must guarantee is
       that absence of any key verifies under the empty digest. *)
    let t = S.create (Object_store.create ()) in
    Alcotest.(check int) "cardinal" 0 (S.cardinal t);
    Alcotest.(check (option string)) "get" None (S.get t "k");
    let v, p = S.get_with_proof t "k" in
    Alcotest.(check bool) "absence verifies" true
      (v = None && S.verify_get ~digest:(S.root_digest t) ~key:"k" ~value:None p)

  let test_insert_get () =
    let t = build 500 in
    Alcotest.(check int) "cardinal" 500 (S.cardinal t);
    List.iter
      (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (S.get t k))
      (entries 500);
    Alcotest.(check (option string)) "absent" None (S.get t "nope")

  let test_overwrite () =
    let t = build 100 in
    let t = S.insert t (key_of 50) "updated" in
    Alcotest.(check int) "cardinal unchanged" 100 (S.cardinal t);
    Alcotest.(check (option string)) "updated" (Some "updated") (S.get t (key_of 50))

  let test_persistence () =
    (* older versions stay intact after updates *)
    let t1 = build 200 in
    let d1 = S.root_digest t1 in
    let t2 = S.insert t1 (key_of 10) "new" in
    Alcotest.(check (option string)) "old version unchanged" (Some ("val-" ^ key_of 10))
      (S.get t1 (key_of 10));
    Alcotest.(check (option string)) "new version sees write" (Some "new") (S.get t2 (key_of 10));
    Alcotest.(check bool) "old digest unchanged" true (Hash.equal d1 (S.root_digest t1));
    Alcotest.(check bool) "digests differ" false (Hash.equal d1 (S.root_digest t2))

  let test_digest_deterministic () =
    let a = build 300 and b = build 300 in
    Alcotest.(check bool) "same contents, same digest" true
      (Hash.equal (S.root_digest a) (S.root_digest b))

  let test_proofs () =
    let t = build 300 in
    let digest = S.root_digest t in
    List.iter
      (fun i ->
         let key = key_of i in
         let v, p = S.get_with_proof t key in
         Alcotest.(check bool) ("verify " ^ key) true (S.verify_get ~digest ~key ~value:v p);
         Alcotest.(check bool) ("forged value " ^ key) false
           (S.verify_get ~digest ~key ~value:(Some "forged") p);
         Alcotest.(check bool) ("forged absence " ^ key) false
           (S.verify_get ~digest ~key ~value:None p))
      [ 0; 1; 137; 298; 299 ];
    (* absence proof *)
    let v, p = S.get_with_proof t "absent-key" in
    Alcotest.(check bool) "absent" true (v = None);
    Alcotest.(check bool) "absence verifies" true
      (S.verify_get ~digest ~key:"absent-key" ~value:None p);
    Alcotest.(check bool) "fabricated presence fails" false
      (S.verify_get ~digest ~key:"absent-key" ~value:(Some "x") p);
    (* a proof never verifies under a different digest *)
    let _, p0 = S.get_with_proof t (key_of 0) in
    Alcotest.(check bool) "wrong digest" false
      (S.verify_get ~digest:(Hash.of_string "other") ~key:(key_of 0)
         ~value:(Some ("val-" ^ key_of 0)) p0)

  let test_range () =
    let t = build 400 in
    let digest = S.root_digest t in
    let lo = key_of 100 and hi = key_of 149 in
    let expected = List.filteri (fun i _ -> i >= 100 && i <= 149) (entries 400) in
    Alcotest.(check int) "range size" 50 (List.length (S.range t ~lo ~hi));
    let found, proof = S.range_with_proof t ~lo ~hi in
    Alcotest.(check bool) "range contents" true (found = expected);
    Alcotest.(check bool) "range verifies" true
      (S.verify_range ~digest ~lo ~hi ~entries:found proof);
    Alcotest.(check bool) "omission detected" false
      (S.verify_range ~digest ~lo ~hi ~entries:(List.tl found) proof);
    Alcotest.(check bool) "addition detected" false
      (S.verify_range ~digest ~lo ~hi ~entries:(("key100000a", "fake") :: found) proof);
    Alcotest.(check bool) "substitution detected" false
      (S.verify_range ~digest ~lo ~hi
         ~entries:((lo, "tampered") :: List.tl found) proof);
    (* extraction returns exactly the committed contents *)
    Alcotest.(check bool) "extract_range" true
      (S.extract_range ~digest ~lo ~hi proof = Some found);
    (* empty range *)
    let found0, proof0 = S.range_with_proof t ~lo:"zzz" ~hi:"zzzz" in
    Alcotest.(check bool) "empty range" true (found0 = []);
    Alcotest.(check bool) "empty range verifies" true
      (S.verify_range ~digest ~lo:"zzz" ~hi:"zzzz" ~entries:[] proof0)

  let test_iter () =
    let t = build 123 in
    let count = ref 0 in
    S.iter t (fun k v ->
        incr count;
        Alcotest.(check string) k ("val-" ^ k) v);
    Alcotest.(check int) "iter count" 123 !count

  let test_structural_sharing () =
    let store = Object_store.create () in
    let t = List.fold_left (fun t (k, v) -> S.insert t k v) (S.create store) (entries 1000) in
    ignore t;
    let before = (Object_store.stats store).Object_store.physical_bytes in
    ignore (S.insert t (key_of 3) "changed");
    let added = (Object_store.stats store).Object_store.physical_bytes - before in
    (* one update must not duplicate the structure *)
    Alcotest.(check bool) "update adds a small fraction" true (added * 10 < before)

  let prop_model =
    QCheck.Test.make ~name:(S.name ^ ": model-based insert/get/range") ~count:40
      QCheck.(small_list (pair (int_bound 500) (int_bound 1000)))
      (fun ops ->
         let store = Object_store.create () in
         let t, model =
           List.fold_left
             (fun (t, m) (ki, vi) ->
                let k = key_of ki and v = Printf.sprintf "v%d" vi in
                (S.insert t k v, SM.add k v m))
             (S.create store, SM.empty) ops
         in
         SM.for_all (fun k v -> S.get t k = Some v) model
         && S.cardinal t = SM.cardinal model
         && S.range t ~lo:(key_of 0) ~hi:(key_of 500) = SM.bindings model)

  let prop_batch_is_fold =
    QCheck.Test.make ~name:(S.name ^ ": insert_batch = insert fold") ~count:30
      QCheck.(pair (int_bound 200) (small_list (pair (int_bound 300) (int_bound 5))))
      (fun (n0, ops) ->
         let kvs = List.map (fun (ki, vi) -> (key_of ki, Printf.sprintf "v%d" vi)) ops in
         let folded = List.fold_left (fun t (k, v) -> S.insert t k v) (build n0) kvs in
         let batched = S.insert_batch (build n0) kvs in
         Hash.equal (S.root_digest folded) (S.root_digest batched)
         && S.cardinal folded = S.cardinal batched)

  let suite name =
    [
      Alcotest.test_case (name ^ ": empty") `Quick test_empty;
      Alcotest.test_case (name ^ ": insert/get") `Quick test_insert_get;
      Alcotest.test_case (name ^ ": overwrite") `Quick test_overwrite;
      Alcotest.test_case (name ^ ": persistence") `Quick test_persistence;
      Alcotest.test_case (name ^ ": deterministic digest") `Quick test_digest_deterministic;
      Alcotest.test_case (name ^ ": proofs") `Quick test_proofs;
      Alcotest.test_case (name ^ ": range") `Quick test_range;
      Alcotest.test_case (name ^ ": iter") `Quick test_iter;
      Alcotest.test_case (name ^ ": structural sharing") `Quick test_structural_sharing;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_batch_is_fold;
    ]
end

module Bptree_conf = Conformance (Merkle_bptree)
module Mpt_conf = Conformance (Mpt)
module Mbt_conf = Conformance (Mbt)
module Pos_conf = Conformance (Pos_tree)

(* --- POS-tree specifics: structural invariance --- *)

let shuffle seed l =
  let a = Array.of_list l in
  let state = ref (if seed = 0 then 1 else seed) in
  let rand bound =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = (x lxor (x lsl 17)) land max_int in
    state := x;
    x mod bound
  in
  for i = Array.length a - 1 downto 1 do
    let j = rand (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let test_pos_order_invariance () =
  let es = entries 800 in
  let build order =
    let store = Object_store.create () in
    List.fold_left (fun t (k, v) -> Pos_tree.insert t k v) (Pos_tree.create store) order
  in
  let d0 = Pos_tree.root_digest (build es) in
  List.iter
    (fun seed ->
       Alcotest.(check bool)
         (Printf.sprintf "shuffle %d" seed)
         true
         (Hash.equal d0 (Pos_tree.root_digest (build (shuffle seed es)))))
    [ 1; 2; 3; 42 ]

let test_pos_bulk_equals_incremental () =
  let es = entries 777 in
  let store = Object_store.create () in
  let bulk = Pos_tree.of_sorted_entries store es in
  let store2 = Object_store.create () in
  let inc =
    List.fold_left (fun t (k, v) -> Pos_tree.insert t k v) (Pos_tree.create store2) es
  in
  Alcotest.(check bool) "same digest" true
    (Hash.equal (Pos_tree.root_digest bulk) (Pos_tree.root_digest inc))

let test_pos_delete () =
  let es = entries 300 in
  let store = Object_store.create () in
  let t = Pos_tree.of_sorted_entries store es in
  let t2 = Pos_tree.insert t "zz-extra" "x" in
  let t3 = Pos_tree.remove t2 "zz-extra" in
  Alcotest.(check bool) "insert+delete restores digest" true
    (Hash.equal (Pos_tree.root_digest t) (Pos_tree.root_digest t3));
  Alcotest.(check bool) "remove absent is no-op" true
    (Hash.equal (Pos_tree.root_digest t) (Pos_tree.root_digest (Pos_tree.remove t "missing")));
  let t4 = List.fold_left (fun t (k, _) -> Pos_tree.remove t k) t es in
  Alcotest.(check int) "empty after removing all" 0 (Pos_tree.cardinal t4);
  Alcotest.(check bool) "null digest" true (Hash.is_null (Pos_tree.root_digest t4))

let prop_pos_mixed_ops_canonical =
  QCheck.Test.make ~name:"pos-tree: random ops stay canonical" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (pair (int_bound 100) bool))
    (fun ops ->
       let store = Object_store.create () in
       let t, model =
         List.fold_left
           (fun (t, m) (ki, is_delete) ->
              let k = key_of ki in
              if is_delete then (Pos_tree.remove t k, SM.remove k m)
              else begin
                let v = "v" ^ k in
                (Pos_tree.insert t k v, SM.add k v m)
              end)
           (Pos_tree.create store, SM.empty) ops
       in
       let bulk = Pos_tree.of_sorted_entries (Object_store.create ()) (SM.bindings model) in
       Hash.equal (Pos_tree.root_digest t) (Pos_tree.root_digest bulk)
       && Pos_tree.cardinal t = SM.cardinal model)

(* --- MPT specifics --- *)

let test_mpt_nibbles () =
  Alcotest.(check string) "roundtrip" "hello" (Mpt.of_nibbles (Mpt.to_nibbles "hello"));
  Alcotest.(check int) "length" 10 (String.length (Mpt.to_nibbles "hello"));
  Alcotest.(check string) "empty" "" (Mpt.of_nibbles (Mpt.to_nibbles ""))

let test_mpt_prefix_keys () =
  (* keys that are prefixes of each other exercise branch-with-value nodes *)
  let store = Object_store.create () in
  let t = Mpt.create store in
  let t = Mpt.insert t "a" "1" in
  let t = Mpt.insert t "ab" "2" in
  let t = Mpt.insert t "abc" "3" in
  let t = Mpt.insert t "b" "4" in
  Alcotest.(check (option string)) "a" (Some "1") (Mpt.get t "a");
  Alcotest.(check (option string)) "ab" (Some "2") (Mpt.get t "ab");
  Alcotest.(check (option string)) "abc" (Some "3") (Mpt.get t "abc");
  Alcotest.(check (option string)) "b" (Some "4") (Mpt.get t "b");
  let digest = Mpt.root_digest t in
  List.iter
    (fun key ->
       let v, p = Mpt.get_with_proof t key in
       Alcotest.(check bool) ("proof " ^ key) true (Mpt.verify_get ~digest ~key ~value:v p))
    [ "a"; "ab"; "abc"; "b"; "ax" ];
  Alcotest.(check bool) "range over prefixes" true
    (Mpt.range t ~lo:"a" ~hi:"abz" = [ ("a", "1"); ("ab", "2"); ("abc", "3") ])

(* --- MBT specifics --- *)

let test_mbt_sized () =
  let store = Object_store.create () in
  let t = Mbt.create_sized ~buckets:16 store in
  let t = List.fold_left (fun t (k, v) -> Mbt.insert t k v) t (entries 200) in
  Alcotest.(check int) "cardinal" 200 (Mbt.cardinal t);
  List.iter (fun (k, v) -> Alcotest.(check (option string)) k (Some v) (Mbt.get t k)) (entries 200);
  Alcotest.check_raises "bad bucket count"
    (Invalid_argument "Mbt.create_sized: buckets must be a power of two >= 2") (fun () ->
        ignore (Mbt.create_sized ~buckets:12 store))

let test_mbt_range_proof_is_whole_tree () =
  let store = Object_store.create () in
  let t = List.fold_left (fun t (k, v) -> Mbt.insert t k v) (Mbt.create store) (entries 100) in
  let _, point = Mbt.get_with_proof t (key_of 0) in
  let _, range = Mbt.range_with_proof t ~lo:(key_of 10) ~hi:(key_of 19) in
  (* the documented weakness: range proofs dwarf point proofs *)
  Alcotest.(check bool) "range proof much larger" true
    (Siri.proof_size range > 10 * Siri.proof_size point)

let suite =
  Bptree_conf.suite "bptree"
  @ Mpt_conf.suite "mpt"
  @ Mbt_conf.suite "mbt"
  @ Pos_conf.suite "pos"
  @ [
      Alcotest.test_case "pos: order invariance" `Quick test_pos_order_invariance;
      Alcotest.test_case "pos: bulk = incremental" `Quick test_pos_bulk_equals_incremental;
      Alcotest.test_case "pos: delete" `Quick test_pos_delete;
      QCheck_alcotest.to_alcotest prop_pos_mixed_ops_canonical;
      Alcotest.test_case "mpt: nibbles" `Quick test_mpt_nibbles;
      Alcotest.test_case "mpt: prefix keys" `Quick test_mpt_prefix_keys;
      Alcotest.test_case "mbt: sized buckets" `Quick test_mbt_sized;
      Alcotest.test_case "mbt: range proof cost" `Quick test_mbt_range_proof_is_whole_tree;
    ]

(* --- adversarial proof corruption ---

   Any single-byte corruption of any proof node must make verification fail:
   node identity is the hash of its bytes, so a flipped byte breaks the link
   from the digest. Run against every SIRI implementation. *)

(* Corrupt one byte of one node — in every copy of that node, since a proof
   may legitimately list a shared node several times and leaving one copy
   intact leaves the information intact. *)
let corrupt_proof rng (proof : Siri.proof) =
  let nodes = Array.of_list proof.Siri.nodes in
  if Array.length nodes = 0 then None
  else begin
    let i = Spitz_workload.Keygen.int rng (Array.length nodes) in
    let original = nodes.(i) in
    let node = Bytes.of_string original in
    if Bytes.length node = 0 then None
    else begin
      let j = Spitz_workload.Keygen.int rng (Bytes.length node) in
      Bytes.set node j (Char.chr (Char.code (Bytes.get node j) lxor (1 + Spitz_workload.Keygen.int rng 255)));
      let corrupted = Bytes.to_string node in
      Some
        {
          Siri.nodes =
            Array.to_list (Array.map (fun n -> if String.equal n original then corrupted else n) nodes);
        }
    end
  end

let prop_corrupted_proofs_fail (module S : Siri.S) =
  QCheck.Test.make ~name:(S.name ^ ": corrupted proofs never verify") ~count:60
    QCheck.(pair (int_range 1 200) (int_bound 10_000))
    (fun (n, seed) ->
       let rng = Spitz_workload.Keygen.rng seed in
       let store = Object_store.create () in
       let t = ref (S.create store) in
       for i = 0 to n - 1 do
         t := S.insert !t (key_of i) ("v" ^ string_of_int i)
       done;
       let digest = S.root_digest !t in
       let key = key_of (Spitz_workload.Keygen.int rng n) in
       let value, proof = S.get_with_proof !t key in
       (* sanity: the honest proof verifies *)
       S.verify_get ~digest ~key ~value proof
       &&
       (match corrupt_proof rng proof with
        | None -> true
        | Some bad -> not (S.verify_get ~digest ~key ~value bad)))

let prop_corrupted_range_proofs_fail (module S : Siri.S) =
  QCheck.Test.make ~name:(S.name ^ ": corrupted range proofs never verify") ~count:40
    QCheck.(pair (int_range 10 150) (int_bound 10_000))
    (fun (n, seed) ->
       let rng = Spitz_workload.Keygen.rng seed in
       let store = Object_store.create () in
       let t = ref (S.create store) in
       for i = 0 to n - 1 do
         t := S.insert !t (key_of i) ("v" ^ string_of_int i)
       done;
       let digest = S.root_digest !t in
       let lo = key_of 2 and hi = key_of (n / 2) in
       let entries, proof = S.range_with_proof !t ~lo ~hi in
       S.verify_range ~digest ~lo ~hi ~entries proof
       &&
       (match corrupt_proof rng proof with
        | None -> true
        | Some bad -> not (S.verify_range ~digest ~lo ~hi ~entries bad)))

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest (prop_corrupted_proofs_fail (module Merkle_bptree));
      QCheck_alcotest.to_alcotest (prop_corrupted_proofs_fail (module Mpt));
      QCheck_alcotest.to_alcotest (prop_corrupted_proofs_fail (module Mbt));
      QCheck_alcotest.to_alcotest (prop_corrupted_proofs_fail (module Pos_tree));
      QCheck_alcotest.to_alcotest (prop_corrupted_range_proofs_fail (module Merkle_bptree));
      QCheck_alcotest.to_alcotest (prop_corrupted_range_proofs_fail (module Mpt));
      QCheck_alcotest.to_alcotest (prop_corrupted_range_proofs_fail (module Mbt));
      QCheck_alcotest.to_alcotest (prop_corrupted_range_proofs_fail (module Pos_tree));
    ]

(* --- Merkle B+-tree batch insert against the per-key oracle ---

   [Oracle_bptree] is the store-backed single-key path copy; folding it over
   a batch must give the same root digest and cardinal as one
   [insert_batch], and every object the batch stores must be reachable from
   the new root (no intermediate node versions). *)

let tree_height store root =
  let rec go h =
    match Kv_node.load store h with
    | Kv_node.Leaf _ | Kv_node.Internal [||] -> 1
    | Kv_node.Internal children -> 1 + go (snd children.(0))
  in
  if Hash.is_null root then 0 else go root

(* Initial keys are the even indices, so batch keys land both on them
   (overwrites) and between them; value 0 is the ledger's tombstone. *)
let batch_kvs ops =
  List.map (fun (ki, vi) -> (key_of ki, if vi = 0 then "T" else Printf.sprintf "V%d" vi)) ops

let initial n0 = List.init n0 (fun i -> (key_of (2 * i), Printf.sprintf "V-init-%d" i))

(* Applies [kvs] to an [n0]-key tree both ways; returns the starting tree,
   the batched result, the oracle's result and the addresses of the objects
   the batch added to the store. *)
let run_batch_from init kvs =
  let oracle =
    Oracle_bptree.insert_all
      (Oracle_bptree.insert_all (Oracle_bptree.create (Object_store.create ())) init)
      kvs
  in
  let store = Object_store.create () in
  let t0 = Merkle_bptree.insert_batch (Merkle_bptree.create store) init in
  let stored () = Object_store.fold store (fun h _ acc -> h :: acc) [] in
  let before = Hash.Table.create 256 in
  List.iter (fun h -> Hash.Table.replace before h ()) (stored ());
  let count_before = Object_store.object_count store in
  let t1 = Merkle_bptree.insert_batch t0 kvs in
  let added = List.filter (fun h -> not (Hash.Table.mem before h)) (stored ()) in
  (* the batch only adds objects, so the new addresses are the count's delta *)
  assert (List.length added = Object_store.object_count store - count_before);
  (t0, t1, oracle, added)

let run_batch n0 kvs = run_batch_from (initial n0) kvs

let only_reachable_added t added =
  let reachable = Hash.Table.create 256 in
  Merkle_bptree.iter_nodes (Merkle_bptree.store t) (Merkle_bptree.root_digest t) (fun h ->
      Hash.Table.replace reachable h ());
  List.for_all (Hash.Table.mem reachable) added

let matches_oracle t (oracle : Oracle_bptree.t) =
  Hash.equal (Merkle_bptree.root_digest t) (Oracle_bptree.root_digest oracle)
  && Merkle_bptree.cardinal t = oracle.Oracle_bptree.count

let gen_batch_case =
  QCheck.Gen.(
    let* n0 = oneof [ return 0; int_range 1 40; int_range 41 400 ] in
    let* len = oneof [ return 0; int_range 1 16; int_range 17 600 ] in
    (* a narrow key span forces duplicate keys within the batch *)
    let* span = int_range 1 ((2 * n0) + len + 1) in
    let* ops = list_repeat len (pair (int_bound span) (int_bound 9)) in
    return (n0, ops))

let prop_batch_matches_oracle =
  QCheck.Test.make ~name:"bptree: insert_batch matches the per-key oracle" ~count:60
    (QCheck.make
       ~print:(fun (n0, ops) -> Printf.sprintf "n0=%d batch=%d" n0 (List.length ops))
       gen_batch_case)
    (fun (n0, ops) ->
       let _, t1, oracle, added = run_batch n0 (batch_kvs ops) in
       matches_oracle t1 oracle && only_reachable_added t1 added)

(* The array-backed batch edits its node copies in place; the oracle
   rebuilds lists. Starting keys sit at [base + 2i], and the batch draws
   its keys from a run below the tree's minimum (lowering every separator
   on the left spine), a narrow window around the minimum (duplicates
   inside the batch), or the whole span; long batches split the root. *)
let gen_below_min_case =
  QCheck.Gen.(
    let base = 400 in
    let* n0 = oneof [ return 0; int_range 1 40; int_range 41 300 ] in
    let* len = oneof [ int_range 1 16; int_range 17 600 ] in
    let key =
      oneof
        [ int_range 0 (base - 1); int_range (base - 6) (base + 6);
          int_range 0 (base + (2 * n0) + 10) ]
    in
    let* ops = list_repeat len (pair key (int_bound 9)) in
    return (List.init n0 (fun i -> (key_of (base + (2 * i)), Printf.sprintf "V-init-%d" i)), ops))

let prop_batch_below_min_matches_oracle =
  QCheck.Test.make ~name:"bptree: array batch below the minimum matches the oracle" ~count:80
    (QCheck.make
       ~print:(fun (init, ops) ->
           Printf.sprintf "n0=%d batch=%d" (List.length init) (List.length ops))
       gen_below_min_case)
    (fun (init, ops) ->
       let _, t1, oracle, added = run_batch_from init (batch_kvs ops) in
       matches_oracle t1 oracle && only_reachable_added t1 added)

(* Root digests and cardinals of a POS-tree (700 inserts, 40 removes) and a
   Merkle B+-tree (two batches, the second above every key), as the
   list-backed nodes produced them: the array representation changed no
   byte of any node. *)
let test_golden_roots () =
  let store = Object_store.create () in
  let p =
    List.fold_left
      (fun t i -> Pos_tree.insert t (key_of (i * 37 mod 700)) ("v" ^ string_of_int i))
      (Pos_tree.create store) (List.init 700 Fun.id)
  in
  let p = List.fold_left (fun t i -> Pos_tree.remove t (key_of (i * 5))) p (List.init 40 Fun.id) in
  Alcotest.(check string) "pos-tree root"
    "da2774c32f8084b5a0a3269e9ffafc890151bb46fa881b4c46e294477568bcab"
    (Hash.to_hex (Pos_tree.root_digest p));
  Alcotest.(check int) "pos-tree cardinal" 660 (Pos_tree.cardinal p);
  let m =
    Merkle_bptree.insert_batch (Merkle_bptree.create store)
      (List.init 700 (fun i -> (key_of (i * 37 mod 700), "v" ^ string_of_int i)))
  in
  let m = Merkle_bptree.insert_batch m (List.init 50 (fun i -> (key_of (1000 - i), "w"))) in
  Alcotest.(check string) "merkle-bptree root"
    "faee195b58224160294a1ad08703c0781fd690e0b325b63dfae5335448d99d69"
    (Hash.to_hex (Merkle_bptree.root_digest m));
  Alcotest.(check int) "merkle-bptree cardinal" 750 (Merkle_bptree.cardinal m)

let test_batch_empty () =
  let t0, t1, oracle, added = run_batch 100 [] in
  Alcotest.(check bool) "digest unchanged" true
    (Hash.equal (Merkle_bptree.root_digest t0) (Merkle_bptree.root_digest t1));
  Alcotest.(check bool) "matches oracle" true (matches_oracle t1 oracle);
  Alcotest.(check int) "nothing stored" 0 (List.length added);
  let _, e1, eoracle, eadded = run_batch 0 [] in
  Alcotest.(check bool) "empty tree stays empty" true
    (Hash.is_null (Merkle_bptree.root_digest e1) && matches_oracle e1 eoracle && eadded = [])

let test_batch_duplicates_and_tombstones () =
  let k = key_of 7 and k2 = key_of 8 in
  let kvs = [ (k, "V1"); (k2, "T"); (k, "T"); (k2, "V2"); (k, "V3"); (k2, "T") ] in
  let t0, t1, oracle, added = run_batch 4 kvs in
  Alcotest.(check bool) "matches oracle" true (matches_oracle t1 oracle);
  Alcotest.(check (option string)) "last write wins" (Some "V3") (Merkle_bptree.get t1 k);
  Alcotest.(check (option string)) "tombstone kept" (Some "T") (Merkle_bptree.get t1 k2);
  Alcotest.(check int) "cardinal" 6 (Merkle_bptree.cardinal t1);
  Alcotest.(check (option string)) "old version intact" None (Merkle_bptree.get t0 k);
  Alcotest.(check int) "one leaf stored" 1 (List.length added)

let test_batch_splits_root_twice () =
  (* 600 keys into a one-leaf tree, and into an empty one: the root splits
     twice either way *)
  List.iter
    (fun n0 ->
       let kvs = batch_kvs (List.init 600 (fun i -> ((i * 7919) mod 1200, 1 + (i mod 9)))) in
       let t0, t1, oracle, added = run_batch n0 kvs in
       let store = Merkle_bptree.store t1 in
       Alcotest.(check int) "starting height" (min n0 1)
         (tree_height store (Merkle_bptree.root_digest t0));
       Alcotest.(check int) "height after the batch" 3
         (tree_height store (Merkle_bptree.root_digest t1));
       Alcotest.(check bool) "matches oracle" true (matches_oracle t1 oracle);
       Alcotest.(check bool) "only reachable nodes stored" true (only_reachable_added t1 added))
    [ 0; 10 ]

let batch_suite =
  [
    QCheck_alcotest.to_alcotest prop_batch_matches_oracle;
    QCheck_alcotest.to_alcotest prop_batch_below_min_matches_oracle;
    Alcotest.test_case "pos-tree and bptree golden roots" `Quick test_golden_roots;
    Alcotest.test_case "bptree: empty batch" `Quick test_batch_empty;
    Alcotest.test_case "bptree: duplicate keys and tombstones in a batch" `Quick
      test_batch_duplicates_and_tombstones;
    Alcotest.test_case "bptree: 600-key batch splits the root twice" `Quick
      test_batch_splits_root_twice;
  ]

(* the node codec is total: arbitrary bytes either decode or raise Malformed *)
let prop_kv_node_decode_total =
  QCheck.Test.make ~name:"kv-node decoding is total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 300) QCheck.Gen.char)
    (fun data ->
       match Kv_node.decode data with
       | _ -> true
       | exception Spitz_storage.Wire.Malformed _ -> true)

let prop_kv_node_roundtrip =
  QCheck.Test.make ~name:"kv-node encode/decode roundtrip" ~count:200
    QCheck.(small_list (pair small_string small_string))
    (fun entries ->
       let node = Kv_node.Leaf (Array.of_list entries) in
       Kv_node.decode (Kv_node.encode node) = node)

(* Leaf and internal array nodes decode to themselves, and their bytes are
   the list codec's bytes: [Wire.write_array] frames exactly like
   [Wire.write_list]. *)
let prop_kv_node_array_roundtrip =
  QCheck.Test.make ~name:"kv-node array nodes: decode . encode = id, list bytes" ~count:200
    QCheck.(pair bool (small_list (pair small_string small_string)))
    (fun (internal, pairs) ->
       let list_bytes tag write =
         let buf = Wire.writer () in
         Wire.write_byte buf tag;
         Wire.write_list buf write pairs;
         Wire.contents buf
       in
       let node, expected =
         if internal then
           let links = List.map (fun (k, v) -> (k, Hash.of_string v)) pairs in
           ( Kv_node.Internal (Array.of_list links),
             list_bytes 'I' (fun buf (k, v) ->
                 Wire.write_string buf k;
                 Wire.write_hash buf (Hash.of_string v)) )
         else
           ( Kv_node.Leaf (Array.of_list pairs),
             list_bytes 'L' (fun buf (k, v) ->
                 Wire.write_string buf k;
                 Wire.write_string buf v) )
       in
       let bytes = Kv_node.encode node in
       String.equal bytes expected && Kv_node.decode bytes = node)

let suite =
  suite
  @ batch_suite
  @ [
      QCheck_alcotest.to_alcotest prop_kv_node_decode_total;
      QCheck_alcotest.to_alcotest prop_kv_node_roundtrip;
      QCheck_alcotest.to_alcotest prop_kv_node_array_roundtrip;
    ]
