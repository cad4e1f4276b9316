open Spitz_crypto

(* The universal key of the virtual cell store (paper section 5): every cell
   version is addressed by (column id, primary key, timestamp, value hash).
   The cell store files versions under their cell, so the encoding names a
   version outside it: in the inverted index and in [Db.search_value]'s
   answers. It is order-preserving on (column, pk, ts). *)

type t = {
  column : string;
  pk : string;
  ts : int;
  vhash : Hash.t;
}

let sep = '\x00'

let make ~column ~pk ~ts ~vhash =
  if String.contains column sep then invalid_arg "Universal_key: column contains NUL";
  if String.contains pk sep then invalid_arg "Universal_key: pk contains NUL";
  { column; pk; ts; vhash }

let sep_str = String.make 1 sep

(* The timestamp field, as the format [%012d] writes it: zero-padded to 12
   characters (a leading '-' counts toward the width), wider values in
   full. Every timestamp below 10^12 therefore sorts numerically. *)
let ts_width = 12

let ts_field ts =
  let s = string_of_int ts in
  let n = String.length s in
  if n >= ts_width then s
  else if ts >= 0 then String.make (ts_width - n) '0' ^ s
  else "-" ^ String.make (ts_width - n) '0' ^ String.sub s 1 (n - 1)

(* column \0 pk \0 ts(12 digits) \0 vhash-hex *)
let encode t = String.concat sep_str [ t.column; t.pk; ts_field t.ts; Hash.to_hex t.vhash ]

let decode s =
  match String.split_on_char sep s with
  | [ column; pk; ts; hex ] ->
    (try Some { column; pk; ts = int_of_string ts; vhash = Hash.of_hex hex }
     with _ -> None)
  | _ -> None

let compare a b = String.compare (encode a) (encode b)

let pp fmt t =
  Format.fprintf fmt "%s/%s@%d#%s" t.column t.pk t.ts (Hash.short_hex t.vhash)
