(* Reference hex and universal-key encoders: the [Printf] formulations that
   [Spitz_crypto.Hash.to_hex] and [Spitz.Universal_key.encode] ran before
   their table-driven and direct-concatenation versions, kept in the test
   tree as the differential oracle. *)

let hex_of_string s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let encode (uk : Spitz.Universal_key.t) =
  Printf.sprintf "%s%c%s%c%012d%c%s" uk.column '\x00' uk.pk '\x00' uk.ts '\x00'
    (hex_of_string (Spitz_crypto.Hash.to_raw uk.vhash))
