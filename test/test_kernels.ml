(* Differential tests of the native checksum kernels: the C SHA-256
   compressors (SHA-NI where the CPU has it, and the portable one) and the
   slicing-by-8 CRC-32, each against the pure-OCaml reference kept in
   oracle_sha256.ml / oracle_crc32.ml; and of the table-driven hex codec
   against the [Printf] version in oracle_hex.ml. A golden end-to-end digest catches a
   kernel that is wrong in a self-consistent way. *)

open Spitz_crypto
module Crc32 = Spitz_storage.Crc32

(* A message of [len] random bytes placed at offset [off] of a larger
   buffer, so the kernels see unaligned starts and neighbouring bytes. *)
let gen_window =
  QCheck.Gen.(
    let* len = int_bound 4200 in
    let* off = int_bound 67 in
    let* pad = int_bound 9 in
    let* body = string_size ~gen:char (return (off + len + pad)) in
    return (body, off, len))

let print_window (body, off, len) =
  Printf.sprintf "len=%d off=%d total=%d" len off (String.length body)

let arb_window = QCheck.make ~print:print_window gen_window

let prop_sha256_oneshot =
  QCheck.Test.make ~name:"sha256 one-shot kernels match the OCaml oracle" ~count:300 arb_window
    (fun (body, off, len) ->
       let expect = Oracle_sha256.digest_string (String.sub body off len) in
       let b = Bytes.of_string body in
       String.equal expect (Sha256.digest_sub body off len)
       && String.equal expect (Sha256.digest_bytes b off len)
       && String.equal expect (Sha256.For_testing.digest_portable b off len))

(* Streaming feeds cut around the padding and block boundaries: chunk sizes
   cluster at 55/56/63/64 bytes (and their neighbours), plus arbitrary
   ones. *)
let gen_chunks =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (frequency
         [
           (3, oneofl [ 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128 ]);
           (1, int_bound 300);
         ]))

let prop_sha256_streaming =
  QCheck.Test.make ~name:"sha256 streaming splits match the OCaml oracle" ~count:300
    QCheck.(
      make
        ~print:(fun (c, _) -> String.concat "," (List.map string_of_int c))
        Gen.(pair gen_chunks (string_size ~gen:char (return 2048))))
    (fun (chunks, src) ->
       let ctx = Sha256.init () in
       let parts =
         List.mapi
           (fun i n ->
              let off = i * 7 mod 64 in
              Sha256.feed_sub ctx src off n;
              String.sub src off n)
           chunks
       in
       String.equal
         (Oracle_sha256.digest_string (String.concat "" parts))
         (Sha256.finalize ctx))

let prop_crc32 =
  QCheck.Test.make ~name:"crc32 slicing-by-8 matches the OCaml oracle" ~count:300
    QCheck.(pair arb_window small_nat)
    (fun ((body, off, len), cut) ->
       let expect = Oracle_crc32.update 0l body off len in
       let cut = if len = 0 then 0 else cut mod (len + 1) in
       (* two folds over a split range compose to one *)
       let split =
         Crc32.update_bytes
           (Crc32.update_sub 0l body off cut)
           (Bytes.of_string body) (off + cut) (len - cut)
       in
       Int32.equal expect (Crc32.digest_sub body off len) && Int32.equal expect split)

(* Strings of every length a hex field meets (0 to 64 bytes), drawn over
   all 256 byte values. *)
let arb_bytes =
  QCheck.make ~print:Oracle_hex.hex_of_string QCheck.Gen.(string_size ~gen:char (int_bound 64))

let prop_hex =
  QCheck.Test.make ~name:"hex encoder matches the Printf oracle" ~count:500 arb_bytes (fun s ->
      String.equal (Oracle_hex.hex_of_string s) (Hash.hex_of_string s))

let arb_digest =
  QCheck.make ~print:Oracle_hex.hex_of_string QCheck.Gen.(string_size ~gen:char (return Hash.size))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"of_hex inverts to_hex, either case" ~count:500 arb_digest (fun raw ->
      let h = Hash.of_raw raw in
      let hex = Hash.to_hex h in
      String.equal hex (Oracle_hex.hex_of_string raw)
      && Hash.equal h (Hash.of_hex hex)
      && Hash.equal h (Hash.of_hex (String.uppercase_ascii hex)))

(* [of_hex] once parsed each pair with [int_of_string ("0x" ^ pair)], which
   takes OCaml's digit separators: "f_" read as 0x0f, so 32 copies decoded
   to a hash whose hex is a different string. Every non-digit, underscore
   included, is now an [Invalid_argument]. *)
let test_of_hex_rejects_non_digits () =
  let bad =
    [
      String.concat "" (List.init 32 (fun _ -> "f_"));
      String.concat "" (List.init 32 (fun _ -> "_f"));
      String.make 62 '0' ^ "0g";
      String.make 62 '0' ^ " f";
      String.make 62 '0' ^ "+f";
      String.make 63 '0' ^ "\xff";
    ]
  in
  List.iter
    (fun s ->
       match Hash.of_hex s with
       | h -> Alcotest.failf "%S decoded to %s" s (Hash.to_hex h)
       | exception Invalid_argument _ -> ())
    bad

(* First use from several domains at once: the CRC tables are static and
   the compressor probe is idempotent, so every domain sees the oracle's
   answers (a lazily built table could raise here). *)
let test_concurrent_first_use () =
  let input = String.init 3000 (fun i -> Char.chr (i * 31 land 0xff)) in
  let sha = Oracle_sha256.digest_string input and crc = Oracle_crc32.digest input in
  let ok =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let good = ref true in
            for _ = 1 to 200 do
              good :=
                !good
                && String.equal sha (Sha256.digest_string input)
                && Int32.equal crc (Crc32.digest input)
            done;
            !good))
    |> List.map Domain.join
  in
  Alcotest.(check (list bool)) "every domain agrees" [ true; true; true ] ok

(* A fixed KV + SQL script. Its root was recorded with the pure-OCaml
   kernels; any kernel change that keeps the tests above self-consistent
   but alters bytes moves it. *)
let golden_script db =
  for i = 0 to 199 do
    ignore (Spitz.Db.put db (Printf.sprintf "k%04d" i) (Printf.sprintf "v%d" (i * 7)))
  done;
  ignore
    (Spitz.Db.put_batch db ~statements:[ "batch" ]
       (List.init 32 (fun i -> (Printf.sprintf "b%03d" i, String.make (i * 5) 'x'))));
  ignore (Spitz.Db.delete db "k0003");
  let env = Spitz.Sql.env db in
  List.iter
    (fun q -> ignore (Spitz.Sql.exec env q))
    [
      "CREATE TABLE t (id TEXT PRIMARY KEY, v INT, tag TEXT INDEXED)";
      "INSERT INTO t (id, v, tag) VALUES ('a', 1, 'red')";
      "INSERT INTO t (id, v, tag) VALUES ('b', 22, 'blue')";
      "INSERT INTO t (id, v, tag) VALUES ('a', 333, 'green')";
      "DELETE FROM t WHERE pk = 'b'";
    ];
  ignore (Spitz.Db.put db "k0001" "after-sql")

let golden_root = "fac9277ca50deb69ef5a1cc67cccbb88eda5ed0460e59276f34538cb59466800"

let test_golden_digest () =
  let db = Spitz.Db.open_db () in
  golden_script db;
  let d = Spitz.Db.digest db in
  Alcotest.(check string) "root" golden_root (Hash.to_hex d.Spitz_ledger.Journal.root)

let suite =
  [
    Alcotest.test_case "concurrent first use" `Quick test_concurrent_first_use;
    Alcotest.test_case "golden kv+sql digest" `Quick test_golden_digest;
    QCheck_alcotest.to_alcotest prop_sha256_oneshot;
    QCheck_alcotest.to_alcotest prop_sha256_streaming;
    QCheck_alcotest.to_alcotest prop_crc32;
    Alcotest.test_case "of_hex rejects non-digits" `Quick test_of_hex_rejects_non_digits;
    QCheck_alcotest.to_alcotest prop_hex;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
  ]
