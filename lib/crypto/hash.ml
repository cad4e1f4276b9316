type t = string (* 32 raw bytes *)

let size = 32

let of_string s = Sha256.digest_string s

let of_strings parts = Sha256.digest_strings parts

let of_bytes_sub b ~pos ~len = Sha256.digest_bytes b pos len

let null = String.make size '\000'

let is_null t = String.equal t null

let equal = String.equal
let compare = String.compare

let to_raw t = t

let of_raw s =
  if String.length s <> size then
    invalid_arg (Printf.sprintf "Hash.of_raw: expected %d bytes, got %d" size (String.length s));
  s

(* Hex codec by table lookup: one output buffer, no per-byte formatting. *)
let hex_digits = "0123456789abcdef"

let hex_of_string s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

let to_hex = hex_of_string

(* Nibble value of each byte; 0xff marks a character that is not a hex
   digit. Exactly [0-9a-fA-F] decode: no sign, no prefix, no underscore. *)
let nibble_of =
  String.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> Char.chr (c - Char.code '0')
      | 'a' .. 'f' -> Char.chr (c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Char.chr (c - Char.code 'A' + 10)
      | _ -> '\xff')

let of_hex s =
  if String.length s <> size * 2 then invalid_arg "Hash.of_hex: wrong length";
  let nibble i =
    let v = Char.code (String.unsafe_get nibble_of (Char.code s.[i])) in
    if v > 15 then invalid_arg "Hash.of_hex: not a hex digit";
    v
  in
  String.init size (fun i -> Char.chr ((nibble (2 * i) lsl 4) lor nibble ((2 * i) + 1)))

let short_hex t = String.sub (to_hex t) 0 8

(* Domain-separated combiners: leaves and interior nodes must hash into
   disjoint domains, otherwise an interior node could be replayed as a leaf
   (second-preimage attack on Merkle trees, RFC 6962 section 2.1). *)
let leaf data = Sha256.digest_strings [ "\x00"; data ]

(* [leaf] over a byte range: same domain prefix, same digest, no
   intermediate string for the leaf bytes. *)
let leaf_bytes b ~pos ~len =
  let ctx = Sha256.init () in
  Sha256.feed_string ctx "\x00";
  Sha256.feed_bytes ctx b pos len;
  Sha256.finalize ctx

(* One buffer, one call into C: no streaming context per interior node. *)
let node left right =
  let ll = String.length left and lr = String.length right in
  let b = Bytes.create (1 + ll + lr) in
  Bytes.unsafe_set b 0 '\x01';
  Bytes.unsafe_blit_string left 0 b 1 ll;
  Bytes.unsafe_blit_string right 0 b (1 + ll) lr;
  Sha256.digest_bytes b 0 (1 + ll + lr)

let node_list children = Sha256.digest_strings ("\x02" :: children)

let pp fmt t = Format.pp_print_string fmt (short_hex t)

let hash t = Stdlib.Hashtbl.hash t

module Map = Map.Make (String)
module Set = Set.Make (String)
module Table = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)
