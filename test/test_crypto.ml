open Spitz_crypto

(* every SHA-256 kernel: the selected compressor, the portable one and the
   pure-OCaml reference *)
let check_hex msg input expected =
  let b = Bytes.of_string input in
  List.iter
    (fun (kernel, digest) ->
       Alcotest.(check string) (msg ^ " " ^ kernel) expected (Hash.to_hex (Hash.of_raw digest)))
    [
      (Sha256.implementation, Sha256.digest_string input);
      ("portable", Sha256.For_testing.digest_portable b 0 (Bytes.length b));
      ("oracle", Oracle_sha256.digest_string input);
    ]

(* FIPS 180-4 known-answer vectors *)
let test_vectors () =
  check_hex "empty" "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_hex "abc" "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_hex "two blocks" "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  check_hex "million a" (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

(* exercise the 55/56/64-byte padding boundaries *)
let test_padding_boundaries () =
  List.iter
    (fun n ->
       let s = String.make n 'x' in
       (* streaming one byte at a time must match the one-shot digest *)
       let ctx = Sha256.init () in
       String.iter (fun c -> Sha256.feed_string ctx (String.make 1 c)) s;
       Alcotest.(check string)
         (Printf.sprintf "len %d" n)
         (Hash.to_hex (Hash.of_string s))
         (Hash.to_hex (Hash.of_raw (Sha256.finalize ctx))))
    [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ]

let test_digest_strings () =
  Alcotest.(check string) "split hashing"
    (Hash.to_hex (Hash.of_string "helloworld"))
    (Hash.to_hex (Hash.of_strings [ "hello"; "world" ]));
  Alcotest.(check string) "many parts"
    (Hash.to_hex (Hash.of_string "abcdef"))
    (Hash.to_hex (Hash.of_strings [ "a"; "b"; "c"; "d"; "e"; "f" ]))

let test_hex_roundtrip () =
  let h = Hash.of_string "roundtrip" in
  Alcotest.(check bool) "roundtrip" true (Hash.equal h (Hash.of_hex (Hash.to_hex h)));
  Alcotest.check_raises "bad hex length" (Invalid_argument "Hash.of_hex: wrong length")
    (fun () -> ignore (Hash.of_hex "abcd"))

let test_raw_roundtrip () =
  let h = Hash.of_string "raw" in
  Alcotest.(check bool) "roundtrip" true (Hash.equal h (Hash.of_raw (Hash.to_raw h)));
  Alcotest.check_raises "bad raw length"
    (Invalid_argument "Hash.of_raw: expected 32 bytes, got 3") (fun () ->
        ignore (Hash.of_raw "abc"))

let test_domain_separation () =
  (* leaf data equal to an interior node's concatenated children must not
     produce the same hash: different domains *)
  let a = Hash.of_string "a" and b = Hash.of_string "b" in
  let interior = Hash.node a b in
  let replay = Hash.leaf (Hash.to_raw a ^ Hash.to_raw b) in
  Alcotest.(check bool) "leaf vs node" false (Hash.equal interior replay);
  let nl = Hash.node_list [ a; b ] in
  Alcotest.(check bool) "node vs node_list" false (Hash.equal interior nl)

let test_node_one_buffer () =
  (* one C call over one buffer: the digest of the domain tag followed by
     both children, as streaming them gives *)
  let hashes = List.map Hash.of_string [ ""; "a"; "b"; String.make 100 'z' ] in
  List.iter
    (fun l ->
       List.iter
         (fun r ->
            Alcotest.(check string) "node"
              (Hash.to_hex (Hash.of_strings [ "\x01"; Hash.to_raw l; Hash.to_raw r ]))
              (Hash.to_hex (Hash.node l r)))
         hashes)
    hashes

let test_null () =
  Alcotest.(check bool) "null is null" true (Hash.is_null Hash.null);
  Alcotest.(check bool) "digest is not null" false (Hash.is_null (Hash.of_string ""))

let prop_streaming_equals_oneshot =
  QCheck.Test.make ~name:"streaming feed equals one-shot" ~count:200
    QCheck.(pair (small_list (string_of_size Gen.small_nat)) unit)
    (fun (parts, ()) ->
       let joined = String.concat "" parts in
       Hash.equal (Hash.of_strings parts) (Hash.of_string joined))

let prop_distinct_inputs_distinct_digests =
  QCheck.Test.make ~name:"no collisions on distinct short strings" ~count:500
    QCheck.(pair small_string small_string)
    (fun (a, b) -> String.equal a b || not (Hash.equal (Hash.of_string a) (Hash.of_string b)))

let suite =
  [
    Alcotest.test_case "FIPS vectors" `Quick test_vectors;
    Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
    Alcotest.test_case "digest_strings" `Quick test_digest_strings;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
    Alcotest.test_case "domain separation" `Quick test_domain_separation;
    Alcotest.test_case "null digest" `Quick test_null;
    QCheck_alcotest.to_alcotest prop_streaming_equals_oneshot;
    QCheck_alcotest.to_alcotest prop_distinct_inputs_distinct_digests;
    Alcotest.test_case "interior node digest in one call" `Quick test_node_one_buffer;
  ]
