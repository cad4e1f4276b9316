(* Reference hex encoder: the [Printf] formulation that
   [Spitz_crypto.Hash.to_hex] ran before its table-driven version, kept in
   the test tree as the differential oracle. *)

let hex_of_string s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf
