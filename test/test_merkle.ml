open Spitz_adt
module Hash = Spitz_crypto.Hash

let leaves n = List.init n (fun i -> Printf.sprintf "leaf-%d" i)

let test_empty () =
  let t = Merkle.create () in
  Alcotest.(check int) "size" 0 (Merkle.size t);
  Alcotest.(check string) "root of empty = SHA256(\"\")"
    (Hash.to_hex (Hash.of_string ""))
    (Hash.to_hex (Merkle.root t))

let test_single () =
  let t = Merkle.of_leaves [ "only" ] in
  Alcotest.(check bool) "root = leaf hash" true
    (Hash.equal (Merkle.root t) (Hash.leaf "only"))

let test_rfc_shape () =
  (* root of [a;b;c] must be node(node(a,b), c) *)
  let t = Merkle.of_leaves [ "a"; "b"; "c" ] in
  let expected = Hash.node (Hash.node (Hash.leaf "a") (Hash.leaf "b")) (Hash.leaf "c") in
  Alcotest.(check bool) "3 leaves" true (Hash.equal (Merkle.root t) expected);
  (* root of [a..e]: node(node(node(ab),node(cd)), e) *)
  let t5 = Merkle.of_leaves [ "a"; "b"; "c"; "d"; "e" ] in
  let ab = Hash.node (Hash.leaf "a") (Hash.leaf "b") in
  let cd = Hash.node (Hash.leaf "c") (Hash.leaf "d") in
  let expected5 = Hash.node (Hash.node ab cd) (Hash.leaf "e") in
  Alcotest.(check bool) "5 leaves" true (Hash.equal (Merkle.root t5) expected5)

let test_incremental_root_stability () =
  (* appending must produce the same root as building from scratch *)
  let all = leaves 257 in
  let incremental = Merkle.create () in
  List.iteri
    (fun i leaf ->
       ignore (Merkle.add_leaf incremental leaf);
       let fresh = Merkle.of_leaves (List.filteri (fun j _ -> j <= i) all) in
       if i mod 37 = 0 then
         Alcotest.(check bool)
           (Printf.sprintf "root at %d" i)
           true
           (Hash.equal (Merkle.root incremental) (Merkle.root fresh)))
    all

let test_inclusion_all_indices () =
  let n = 100 in
  let t = Merkle.of_leaves (leaves n) in
  let root = Merkle.root t in
  for i = 0 to n - 1 do
    let proof = Merkle.prove_inclusion t i in
    Alcotest.(check bool) (Printf.sprintf "index %d" i) true
      (Merkle.verify_inclusion ~root ~size:n ~index:i ~leaf:(Merkle.leaf_hash t i) proof)
  done

let test_inclusion_rejects_tampering () =
  let n = 64 in
  let t = Merkle.of_leaves (leaves n) in
  let root = Merkle.root t in
  let proof = Merkle.prove_inclusion t 10 in
  Alcotest.(check bool) "wrong leaf" false
    (Merkle.verify_inclusion ~root ~size:n ~index:10 ~leaf:(Hash.leaf "forged") proof);
  Alcotest.(check bool) "wrong index" false
    (Merkle.verify_inclusion ~root ~size:n ~index:11 ~leaf:(Merkle.leaf_hash t 10) proof);
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify_inclusion ~root:(Hash.of_string "bad") ~size:n ~index:10
       ~leaf:(Merkle.leaf_hash t 10) proof);
  Alcotest.(check bool) "truncated proof" false
    (Merkle.verify_inclusion ~root ~size:n ~index:10 ~leaf:(Merkle.leaf_hash t 10)
       (List.tl proof));
  Alcotest.(check bool) "padded proof" false
    (Merkle.verify_inclusion ~root ~size:n ~index:10 ~leaf:(Merkle.leaf_hash t 10)
       (proof @ [ Hash.of_string "extra" ]))

let test_consistency () =
  let t = Merkle.create () in
  List.iter (fun l -> ignore (Merkle.add_leaf t l)) (leaves 40);
  let old_root = Merkle.root t and old_size = 40 in
  List.iter (fun l -> ignore (Merkle.add_leaf t l)) (List.init 23 (fun i -> Printf.sprintf "x%d" i));
  let proof = Merkle.prove_consistency t ~old_size in
  Alcotest.(check bool) "valid" true
    (Merkle.verify_consistency ~old_root ~old_size ~new_root:(Merkle.root t)
       ~new_size:(Merkle.size t) proof);
  Alcotest.(check bool) "wrong old root" false
    (Merkle.verify_consistency ~old_root:(Hash.of_string "bad") ~old_size
       ~new_root:(Merkle.root t) ~new_size:(Merkle.size t) proof);
  Alcotest.(check bool) "wrong new root" false
    (Merkle.verify_consistency ~old_root ~old_size ~new_root:(Hash.of_string "bad")
       ~new_size:(Merkle.size t) proof)

let test_consistency_rejects_rewrite () =
  (* a "new" tree that dropped an old leaf is not consistent *)
  let honest = Merkle.of_leaves (leaves 20) in
  let old_root = Merkle.root honest in
  let rewritten = Merkle.of_leaves ("evil" :: List.tl (leaves 20) @ leaves 5) in
  (* the server can produce *a* proof for its own tree, but it cannot verify
     against the honest old root *)
  let forged = Merkle.prove_consistency rewritten ~old_size:20 in
  Alcotest.(check bool) "rewrite detected" false
    (Merkle.verify_consistency ~old_root ~old_size:20 ~new_root:(Merkle.root rewritten)
       ~new_size:(Merkle.size rewritten) forged)

let test_edge_consistency () =
  let t = Merkle.of_leaves (leaves 10) in
  Alcotest.(check bool) "m = n" true
    (Merkle.verify_consistency ~old_root:(Merkle.root t) ~old_size:10
       ~new_root:(Merkle.root t) ~new_size:10 []);
  Alcotest.(check bool) "m = 0" true
    (Merkle.verify_consistency ~old_root:Merkle.empty_root ~old_size:0
       ~new_root:(Merkle.root t) ~new_size:10 [])

let test_range_hash () =
  let t = Merkle.of_leaves (leaves 13) in
  Alcotest.(check bool) "full range = root" true
    (Hash.equal (Merkle.range_hash t 0 13) (Merkle.root t));
  (* a range hash must equal the root of a fresh tree over that range *)
  let sub = Merkle.of_leaves (List.filteri (fun i _ -> i >= 8 && i < 13) (leaves 13)) in
  Alcotest.(check bool) "suffix range" true
    (Hash.equal (Merkle.range_hash t 8 13) (Merkle.root sub))

let multi_claims t indices =
  List.map (fun i -> (i, Merkle.leaf_hash t i)) (List.sort_uniq compare indices)

let test_multi_basic () =
  let n = 13 in
  let t = Merkle.of_leaves (leaves n) in
  let root = Merkle.root t in
  let check name indices =
    Alcotest.(check bool) name true
      (Merkle.verify_multi ~root ~size:n ~leaves:(multi_claims t indices)
         (Merkle.prove_multi t indices))
  in
  check "singleton" [ 5 ];
  check "pair" [ 0; 12 ];
  check "duplicates collapse" [ 3; 7; 3; 3 ];
  check "full range" (List.init n Fun.id);
  check "empty claim set" [];
  (* the full-range multiproof is empty: the root follows from the leaves *)
  Alcotest.(check int) "full-range proof is empty" 0
    (List.length (Merkle.prove_multi t (List.init n Fun.id)));
  (* singleton multiproof carries exactly the audit-path hashes *)
  Alcotest.(check int) "singleton proof = inclusion path length"
    (List.length (Merkle.prove_inclusion t 5))
    (List.length (Merkle.prove_multi t [ 5 ]));
  let e = Merkle.create () in
  Alcotest.(check bool) "empty tree, empty claims" true
    (Merkle.verify_multi ~root:(Merkle.root e) ~size:0 ~leaves:[]
       (Merkle.prove_multi e []))

let test_multi_rejects_forgery () =
  let n = 29 in
  let t = Merkle.of_leaves (leaves n) in
  let root = Merkle.root t in
  let indices = [ 2; 3; 11; 17; 28 ] in
  let proof = Merkle.prove_multi t indices in
  let good = multi_claims t indices in
  Alcotest.(check bool) "honest claims verify" true
    (Merkle.verify_multi ~root ~size:n ~leaves:good proof);
  Alcotest.(check bool) "forged leaf hash" false
    (Merkle.verify_multi ~root ~size:n
       ~leaves:((2, Hash.leaf "forged") :: List.tl good) proof);
  Alcotest.(check bool) "claim moved to wrong index" false
    (Merkle.verify_multi ~root ~size:n
       ~leaves:((4, Merkle.leaf_hash t 2) :: List.tl good) proof);
  Alcotest.(check bool) "dropped claim" false
    (Merkle.verify_multi ~root ~size:n ~leaves:(List.tl good) proof);
  Alcotest.(check bool) "truncated proof" false
    (Merkle.verify_multi ~root ~size:n ~leaves:good (List.tl proof));
  Alcotest.(check bool) "padded proof" false
    (Merkle.verify_multi ~root ~size:n ~leaves:good
       (proof @ [ Hash.of_string "extra" ]));
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify_multi ~root:(Hash.of_string "bad") ~size:n ~leaves:good proof);
  Alcotest.(check bool) "out-of-range claim" false
    (Merkle.verify_multi ~root ~size:n
       ~leaves:(good @ [ (n, Hash.leaf "beyond") ]) proof)

let test_multi_smaller_than_individual () =
  (* k co-anchored leaves share most of their audit paths, so one multiproof
     must serialize strictly smaller than k independent inclusion proofs *)
  let n = 128 in
  let t = Merkle.of_leaves (leaves n) in
  let indices = [ 40; 41; 42; 43; 44; 45; 46; 47 ] in
  let multi_bytes = Merkle.proof_bytes (Merkle.prove_multi t indices) in
  let sum_bytes =
    List.fold_left
      (fun acc i -> acc + Merkle.proof_bytes (Merkle.prove_inclusion t i))
      0 indices
  in
  Alcotest.(check bool)
    (Printf.sprintf "multiproof %dB < %dB individual" multi_bytes sum_bytes)
    true (multi_bytes < sum_bytes)

let test_proof_codec () =
  let t = Merkle.of_leaves (leaves 50) in
  let multi = Merkle.prove_multi t [ 1; 7; 30; 31 ] in
  Alcotest.(check bool) "multiproof roundtrip" true
    (Merkle.decode_proof (Merkle.encode_proof multi) = multi);
  let incl = Merkle.prove_inclusion t 9 in
  Alcotest.(check bool) "inclusion roundtrip" true
    (Merkle.decode_proof (Merkle.encode_proof incl) = incl);
  Alcotest.(check int) "proof_bytes = encoded length"
    (String.length (Merkle.encode_proof multi))
    (Merkle.proof_bytes multi);
  Alcotest.check_raises "trailing bytes rejected"
    (Spitz_storage.Wire.Malformed "Merkle.decode_proof: trailing bytes")
    (fun () -> ignore (Merkle.decode_proof (Merkle.encode_proof multi ^ "x")))

let prop_multi =
  QCheck.Test.make ~name:"multiproofs verify for random index sets" ~count:80
    QCheck.(pair (int_range 1 200) (small_list (int_range 0 100_000)))
    (fun (n, raw) ->
       let t = Merkle.of_leaves (leaves n) in
       let indices = List.map (fun i -> i mod n) raw in
       let proof = Merkle.prove_multi t indices in
       let claims = multi_claims t indices in
       Merkle.verify_multi ~root:(Merkle.root t) ~size:n ~leaves:claims proof
       && List.for_all
            (fun (i, leaf) ->
               Merkle.verify_inclusion ~root:(Merkle.root t) ~size:n ~index:i
                 ~leaf (Merkle.prove_inclusion t i))
            claims)

let prop_inclusion =
  QCheck.Test.make ~name:"inclusion proofs verify for random sizes" ~count:60
    QCheck.(pair (int_range 1 300) (int_range 0 1000))
    (fun (n, seed) ->
       let t = Merkle.of_leaves (leaves n) in
       let i = seed mod n in
       Merkle.verify_inclusion ~root:(Merkle.root t) ~size:n ~index:i
         ~leaf:(Merkle.leaf_hash t i) (Merkle.prove_inclusion t i))

let prop_consistency =
  QCheck.Test.make ~name:"consistency proofs verify for random splits" ~count:60
    QCheck.(pair (int_range 1 200) (int_range 0 200))
    (fun (m, extra) ->
       let t = Merkle.of_leaves (leaves m) in
       let old_root = Merkle.root t in
       List.iter (fun i -> ignore (Merkle.add_leaf t (Printf.sprintf "e%d" i)))
         (List.init extra Fun.id);
       Merkle.verify_consistency ~old_root ~old_size:m ~new_root:(Merkle.root t)
         ~new_size:(m + extra)
         (Merkle.prove_consistency t ~old_size:m))

(* The level-by-level build is the append-built tree: the same root, leaf
   hashes, aligned subtree hashes (its levels) and inclusion proofs, and it
   keeps growing by appends exactly as the append-built tree does. *)
let test_of_leaf_hashes () =
  let extra = 3 in
  let all = List.init (1100 + extra) (fun i -> Hash.leaf (Printf.sprintf "entry-%d" i)) in
  let full = Merkle.create () in
  List.iter (fun h -> ignore (Merkle.add_leaf_hash full h)) all;
  let hex = Hash.to_hex in
  for n = 0 to 1100 do
    let prefix = List.filteri (fun i _ -> i < n) all in
    let t = Merkle.of_leaf_hashes prefix in
    let at what = Printf.sprintf "%s at n = %d" what n in
    Alcotest.(check int) (at "size") n (Merkle.size t);
    Alcotest.(check string) (at "root") (hex (Merkle.root_at full ~size:n)) (hex (Merkle.root t));
    List.iter
      (fun i ->
         if i >= 0 && i < n then begin
           Alcotest.(check string) (at "leaf") (hex (Merkle.leaf_hash full i)) (hex (Merkle.leaf_hash t i));
           Alcotest.(check (list string)) (at "inclusion proof")
             (List.map hex (Merkle.prove_inclusion_at full i ~size:n))
             (List.map hex (Merkle.prove_inclusion t i))
         end)
      [ 0; 1; n / 3; n / 2; n - 2; n - 1 ];
    if n <= 70 || n mod 50 = 0 || n = 1100 then begin
      let appended = Merkle.create () in
      List.iter (fun h -> ignore (Merkle.add_leaf_hash appended h)) prefix;
      let width = ref 1 in
      while !width <= n do
        for j = 0 to (n / !width) - 1 do
          Alcotest.(check string) (at "aligned subtree")
            (hex (Merkle.range_hash appended (j * !width) ((j + 1) * !width)))
            (hex (Merkle.range_hash t (j * !width) ((j + 1) * !width)))
        done;
        width := 2 * !width
      done;
      for i = 0 to n - 1 do
        Alcotest.(check (list string)) (at "every inclusion proof")
          (List.map hex (Merkle.prove_inclusion appended i))
          (List.map hex (Merkle.prove_inclusion t i))
      done
    end;
    List.iteri (fun i h -> if i >= n && i < n + extra then ignore (Merkle.add_leaf_hash t h)) all;
    Alcotest.(check string) (at "root after appends")
      (hex (Merkle.root_at full ~size:(n + extra)))
      (hex (Merkle.root t))
  done

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty;
    Alcotest.test_case "single leaf" `Quick test_single;
    Alcotest.test_case "RFC 6962 shape" `Quick test_rfc_shape;
    Alcotest.test_case "incremental = rebuilt" `Quick test_incremental_root_stability;
    Alcotest.test_case "inclusion all indices" `Quick test_inclusion_all_indices;
    Alcotest.test_case "inclusion rejects tampering" `Quick test_inclusion_rejects_tampering;
    Alcotest.test_case "consistency" `Quick test_consistency;
    Alcotest.test_case "consistency rejects rewrite" `Quick test_consistency_rejects_rewrite;
    Alcotest.test_case "consistency edges" `Quick test_edge_consistency;
    Alcotest.test_case "range hash" `Quick test_range_hash;
    Alcotest.test_case "multiproof basics" `Quick test_multi_basic;
    Alcotest.test_case "multiproof rejects forgery" `Quick test_multi_rejects_forgery;
    Alcotest.test_case "multiproof smaller than individual" `Quick
      test_multi_smaller_than_individual;
    Alcotest.test_case "proof wire codec" `Quick test_proof_codec;
    QCheck_alcotest.to_alcotest prop_multi;
    QCheck_alcotest.to_alcotest prop_inclusion;
    QCheck_alcotest.to_alcotest prop_consistency;
    Alcotest.test_case "level-by-level build = append-built, n = 0..1100" `Quick
      test_of_leaf_hashes;
  ]
