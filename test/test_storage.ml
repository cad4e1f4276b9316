open Spitz_storage

(* --- content-defined chunking --- *)

let test_chunk_concat () =
  let data = String.init 100_000 (fun i -> Char.chr (i * 31 mod 256)) in
  Alcotest.(check string) "concat" data (String.concat "" (Chunk.split data))

let test_chunk_bounds () =
  let data = String.init 200_000 (fun i -> Char.chr (i * 131 mod 256)) in
  let chunks = Chunk.split data in
  List.iteri
    (fun i c ->
       let len = String.length c in
       Alcotest.(check bool)
         (Printf.sprintf "chunk %d within max" i)
         true
         (len <= Chunk.default_params.Chunk.max_size);
       (* only the final chunk may be under the minimum *)
       if i < List.length chunks - 1 then
         Alcotest.(check bool)
           (Printf.sprintf "chunk %d above min" i)
           true
           (len >= Chunk.default_params.Chunk.min_size))
    chunks

let test_chunk_empty () =
  Alcotest.(check (list string)) "empty input" [ "" ] (Chunk.split "")

let test_chunk_determinism () =
  let data = String.init 50_000 (fun i -> Char.chr (i * 7 mod 251)) in
  Alcotest.(check bool) "same input, same cuts" true
    (Chunk.boundaries data = Chunk.boundaries data)

(* a localized edit must leave most chunks identical *)
let test_chunk_edit_locality () =
  let data = String.init 100_000 (fun i -> Char.chr (i * 31 mod 256)) in
  let edited =
    String.sub data 0 50_000 ^ "XXXXXXXX" ^ String.sub data 50_008 (100_000 - 50_008)
  in
  let module SS = Set.Make (String) in
  let before = SS.of_list (Chunk.split data) in
  let after = Chunk.split edited in
  let shared = List.length (List.filter (fun c -> SS.mem c before) after) in
  Alcotest.(check bool) "most chunks shared" true
    (float_of_int shared /. float_of_int (List.length after) > 0.7)

let prop_chunk_roundtrip =
  QCheck.Test.make ~name:"chunk split concatenates back" ~count:100
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 40_000) QCheck.Gen.char)
    (fun data -> String.equal data (String.concat "" (Chunk.split data)))

(* --- object store --- *)

let test_store_dedup () =
  let s = Object_store.create () in
  let h1 = Object_store.put s "hello" in
  let h2 = Object_store.put s "hello" in
  Alcotest.(check bool) "same address" true (Spitz_crypto.Hash.equal h1 h2);
  Alcotest.(check int) "one object" 1 (Object_store.object_count s);
  let st = Object_store.stats s in
  Alcotest.(check int) "dedup hit" 1 st.Object_store.dedup_hits;
  Alcotest.(check int) "physical" 5 st.Object_store.physical_bytes;
  Alcotest.(check int) "logical" 10 st.Object_store.logical_bytes

let test_store_get_missing () =
  let s = Object_store.create () in
  Alcotest.(check (option string)) "missing" None
    (Object_store.get s (Spitz_crypto.Hash.of_string "nothing"))

let test_blob_roundtrip () =
  let s = Object_store.create () in
  let big = String.init 100_000 (fun i -> Char.chr (i mod 256)) in
  let h = Object_store.put_blob s big in
  Alcotest.(check (option string)) "roundtrip" (Some big) (Object_store.get_blob s h);
  (* small values are stored raw *)
  let h2 = Object_store.put_blob s "small" in
  Alcotest.(check (option string)) "small" (Some "small") (Object_store.get_blob s h2)

let test_blob_descriptor_collision () =
  (* a value that starts with the descriptor magic must roundtrip *)
  let s = Object_store.create () in
  let tricky = "SPITZBLOB1" ^ String.make 64 'z' in
  let h = Object_store.put_blob s tricky in
  Alcotest.(check (option string)) "roundtrip" (Some tricky) (Object_store.get_blob s h)

let test_blob_dedup_on_edit () =
  let s = Object_store.create () in
  let page = String.init 65_536 (fun i -> Char.chr (i * 31 mod 256)) in
  ignore (Object_store.put_blob s page);
  let before = (Object_store.stats s).Object_store.physical_bytes in
  let edited = String.sub page 0 30_000 ^ "EDIT" ^ String.sub page 30_004 (65_536 - 30_004) in
  ignore (Object_store.put_blob s edited);
  let added = (Object_store.stats s).Object_store.physical_bytes - before in
  Alcotest.(check bool) "edit adds far less than a full copy" true (added < 30_000)

let prop_blob_roundtrip =
  QCheck.Test.make ~name:"put_blob/get_blob roundtrip" ~count:100
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 30_000) QCheck.Gen.char)
    (fun data ->
       let s = Object_store.create () in
       Object_store.get_blob s (Object_store.put_blob s data) = Some data)

(* --- wire format --- *)

let test_wire_roundtrip () =
  let buf = Wire.writer () in
  Wire.write_varint buf 0;
  Wire.write_varint buf 300;
  Wire.write_varint buf 1_000_000_007;
  Wire.write_string buf "hello";
  Wire.write_string buf "";
  Wire.write_byte buf 'Z';
  Wire.write_hash buf (Spitz_crypto.Hash.of_string "w");
  Wire.write_list buf Wire.write_string [ "a"; "bb"; "ccc" ];
  let r = Wire.reader (Wire.contents buf) in
  Alcotest.(check int) "varint 0" 0 (Wire.read_varint r);
  Alcotest.(check int) "varint 300" 300 (Wire.read_varint r);
  Alcotest.(check int) "varint big" 1_000_000_007 (Wire.read_varint r);
  Alcotest.(check string) "string" "hello" (Wire.read_string r);
  Alcotest.(check string) "empty string" "" (Wire.read_string r);
  Alcotest.(check char) "byte" 'Z' (Wire.read_byte r);
  Alcotest.(check bool) "hash" true
    (Spitz_crypto.Hash.equal (Spitz_crypto.Hash.of_string "w") (Wire.read_hash r));
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "ccc" ] (Wire.read_list r Wire.read_string);
  Alcotest.(check bool) "at end" true (Wire.at_end r)

let test_wire_truncation () =
  let check_malformed name f =
    match f () with
    | exception Wire.Malformed _ -> ()
    | _ -> Alcotest.failf "%s: expected Malformed" name
  in
  check_malformed "varint" (fun () -> Wire.read_varint (Wire.reader ""));
  check_malformed "string" (fun () -> Wire.read_string (Wire.reader "\005ab"));
  check_malformed "hash" (fun () -> Wire.read_hash (Wire.reader "short"));
  check_malformed "byte" (fun () -> Wire.read_byte (Wire.reader ""))

let prop_wire_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun n ->
       let buf = Wire.writer () in
       Wire.write_varint buf n;
       Wire.read_varint (Wire.reader (Wire.contents buf)) = n)

let suite =
  [
    Alcotest.test_case "chunk concat" `Quick test_chunk_concat;
    Alcotest.test_case "chunk size bounds" `Quick test_chunk_bounds;
    Alcotest.test_case "chunk empty" `Quick test_chunk_empty;
    Alcotest.test_case "chunk determinism" `Quick test_chunk_determinism;
    Alcotest.test_case "chunk edit locality" `Quick test_chunk_edit_locality;
    QCheck_alcotest.to_alcotest prop_chunk_roundtrip;
    Alcotest.test_case "store dedup" `Quick test_store_dedup;
    Alcotest.test_case "store get missing" `Quick test_store_get_missing;
    Alcotest.test_case "blob roundtrip" `Quick test_blob_roundtrip;
    Alcotest.test_case "blob descriptor collision" `Quick test_blob_descriptor_collision;
    Alcotest.test_case "blob dedup on edit" `Quick test_blob_dedup_on_edit;
    QCheck_alcotest.to_alcotest prop_blob_roundtrip;
    Alcotest.test_case "wire roundtrip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire truncation" `Quick test_wire_truncation;
    QCheck_alcotest.to_alcotest prop_wire_varint;
  ]

(* decoding never crashes on arbitrary bytes: it either succeeds or raises
   Wire.Malformed — the property every network/storage-facing codec needs *)
let prop_wire_decode_total =
  QCheck.Test.make ~name:"wire decoding is total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.char)
    (fun data ->
       let safe f = match f (Wire.reader data) with _ -> true | exception Wire.Malformed _ -> true in
       safe Wire.read_varint && safe Wire.read_string && safe Wire.read_hash
       && safe (fun r -> Wire.read_list r Wire.read_string))

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_wire_decode_total ]

(* --- decoded-node LRU cache --- *)

let h_of i = Spitz_crypto.Hash.of_string (Printf.sprintf "node-%d" i)

let test_cache_hit_miss_stats () =
  let c = Node_cache.create ~capacity:8 () in
  Alcotest.(check (option string)) "cold miss" None (Node_cache.find c (h_of 0));
  Node_cache.add c (h_of 0) "n0";
  Alcotest.(check (option string)) "hit" (Some "n0") (Node_cache.find c (h_of 0));
  Alcotest.(check (option string)) "other key misses" None (Node_cache.find c (h_of 1));
  let s = Node_cache.stats c in
  Alcotest.(check int) "hits" 1 s.Node_cache.hits;
  Alcotest.(check int) "misses" 2 s.Node_cache.misses;
  Alcotest.(check int) "evictions" 0 s.Node_cache.evictions;
  Node_cache.reset_stats c;
  let s = Node_cache.stats c in
  Alcotest.(check int) "reset hits" 0 s.Node_cache.hits;
  Alcotest.(check int) "reset misses" 0 s.Node_cache.misses

(* The cache has 16 stripes and bins a key by the first byte of its
   address; [keys_in s n] is the first [n] test keys that land in stripe
   [s]. *)
let keys_in s n =
  let stripe_of h = Char.code (Spitz_crypto.Hash.to_raw h).[0] land 15 in
  let acc = ref [] and i = ref 0 in
  while List.length !acc < n do
    let h = h_of !i in
    if stripe_of h = s then acc := h :: !acc;
    incr i
  done;
  List.rev !acc

let test_cache_lru_eviction () =
  (* recency order is per stripe: four keys of one stripe whose share of
     the capacity is 3 *)
  let c = Node_cache.create ~capacity:48 () in
  let k = Array.of_list (keys_in 0 4) in
  List.iter (fun i -> Node_cache.add c k.(i) i) [ 0; 1; 2 ];
  (* touch 0 so 1 becomes least recently used *)
  ignore (Node_cache.find c k.(0));
  Node_cache.add c k.(3) 3;
  Alcotest.(check int) "length capped" 3 (Node_cache.length c);
  Alcotest.(check (option int)) "LRU entry evicted" None (Node_cache.find c k.(1));
  Alcotest.(check (option int)) "recently used survives" (Some 0) (Node_cache.find c k.(0));
  Alcotest.(check (option int)) "newest survives" (Some 3) (Node_cache.find c k.(3));
  Alcotest.(check int) "one eviction" 1 (Node_cache.stats c).Node_cache.evictions

let test_cache_find_or_add () =
  let c = Node_cache.create ~capacity:8 () in
  let loads = ref 0 in
  let load () = incr loads; "decoded" in
  Alcotest.(check string) "first loads" "decoded" (Node_cache.find_or_add c (h_of 0) ~load);
  Alcotest.(check string) "second cached" "decoded" (Node_cache.find_or_add c (h_of 0) ~load);
  Alcotest.(check int) "load ran once" 1 !loads;
  Node_cache.clear c;
  Alcotest.(check int) "cleared" 0 (Node_cache.length c);
  Alcotest.(check string) "reloads after clear" "decoded" (Node_cache.find_or_add c (h_of 0) ~load);
  Alcotest.(check int) "load ran again" 2 !loads

(* The invalidation-free design rests on content addressing: reads through
   the cache must remain equal to fresh decodes, over arbitrary interleaved
   inserts — exercised end-to-end through a SIRI index (its [load] consults
   the cache; fresh instances decode from bytes). *)
let test_cache_content_address_consistency () =
  let module T = Spitz_adt.Merkle_bptree in
  let store = Object_store.create () in
  let t = ref (T.create store) in
  for i = 0 to 500 do
    t := T.insert !t (Printf.sprintf "ck%04d" (i * 7 mod 501)) (Printf.sprintf "v%d" i)
  done;
  (* a second handle on the same root: every node read goes through the same
     content-addressed cache, so all lookups must agree *)
  let fresh = T.at_root store (T.root_digest !t) ~count:(T.cardinal !t) in
  for i = 0 to 500 do
    let k = Printf.sprintf "ck%04d" i in
    Alcotest.(check (option string)) k (T.get !t k) (T.get fresh k)
  done;
  Alcotest.(check bool) "roots agree" true
    (Spitz_crypto.Hash.equal (T.root_digest !t) (T.root_digest fresh))

(* Striping must not leak across shards: filling one stripe past its share
   evicts only within that stripe. Keys are binned the same way the cache
   bins them — by the first byte of the address. *)
let test_cache_stripe_independence () =
  let c = Node_cache.create ~capacity:32 () in
  Alcotest.(check int) "capacity rounded" 32 (Node_cache.capacity c);
  (* keys for two distinct stripes *)
  let a = keys_in 0 5 and b = keys_in 1 2 in
  List.iter (fun h -> Node_cache.add c h "b") b;
  List.iter (fun h -> Node_cache.add c h "a") a;
  (* stripe 0 holds 2 of its 5 inserts; stripe 1 is untouched by them *)
  List.iter
    (fun h -> Alcotest.(check (option string)) "other stripe survives" (Some "b") (Node_cache.find c h))
    b;
  Alcotest.(check int) "evictions confined to stripe 0" 3
    (Node_cache.stats c).Node_cache.evictions;
  Node_cache.reset_stats c;
  Alcotest.(check int) "reset zeroes evictions" 0 (Node_cache.stats c).Node_cache.evictions

(* [stats] locks every stripe, so a snapshot can never be torn: with each
   operation bumping exactly one counter, hits+misses must equal the ops
   retired so far — monotonically, and exactly once the domains join. *)
let test_cache_consistent_stats () =
  let c = Node_cache.create ~capacity:128 () in
  let per_domain = 2_000 and domains = 4 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let h = h_of ((d * per_domain + i) mod 200) in
              (match Node_cache.find c h with
               | Some _ -> ()
               | None -> Node_cache.add c h 0);
              ignore (Node_cache.find c h)
            done))
  in
  let last = ref 0 in
  for _ = 1 to 50 do
    let s = Node_cache.stats c in
    let total = s.Node_cache.hits + s.Node_cache.misses in
    if total < !last then Alcotest.fail "stats went backwards (torn snapshot)";
    last := total
  done;
  List.iter Domain.join workers;
  let s = Node_cache.stats c in
  (* find + (find_or_add's find) = 2 counted lookups per loop, every loop *)
  Alcotest.(check int) "every op counted exactly once"
    (2 * domains * per_domain)
    (s.Node_cache.hits + s.Node_cache.misses)

let suite =
  suite
  @ [
      Alcotest.test_case "node cache hit/miss stats" `Quick test_cache_hit_miss_stats;
      Alcotest.test_case "node cache LRU eviction" `Quick test_cache_lru_eviction;
      Alcotest.test_case "node cache find_or_add" `Quick test_cache_find_or_add;
      Alcotest.test_case "node cache content-address consistency" `Quick
        test_cache_content_address_consistency;
      Alcotest.test_case "node cache stripe independence" `Quick test_cache_stripe_independence;
      Alcotest.test_case "node cache consistent stats under domains" `Quick
        test_cache_consistent_stats;
    ]
