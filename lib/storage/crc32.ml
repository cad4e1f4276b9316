(* CRC-32, reflected polynomial 0xEDB88320 (zlib-compatible), over the
   slicing-by-8 C loop in crc32_stubs.c, whose tables are a static const
   literal. The running value crosses into C as a native int holding the
   32-bit pattern, so no [Int32] is boxed per call; [Int32] appears only at
   the API boundary. *)

let mask = 0xFFFFFFFF

external c_update : int -> Bytes.t -> int -> int -> int = "spitz_crc32_update" [@@noalloc]

let of_int32 crc = Int32.to_int crc land mask

let update_bytes crc b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32.update_bytes: out of bounds";
  Int32.of_int (c_update (of_int32 crc) b off len)

let update_sub crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Crc32.update_sub: out of bounds";
  (* strings are immutable; the C loop only reads the range *)
  Int32.of_int (c_update (of_int32 crc) (Bytes.unsafe_of_string s) off len)

let update crc s = update_sub crc s 0 (String.length s)

let digest s = update 0l s

let digest_sub s off len = update_sub 0l s off len
