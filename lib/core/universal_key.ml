open Spitz_crypto

(* The universal key of the virtual cell store (paper section 5): every cell
   is addressed by (column id, primary key, timestamp, value hash). The
   encoding is order-preserving on (column, pk, ts), so one B+-tree serves
   point lookups, per-record version scans, and per-column range scans. *)

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

(* Common prefix of every version of one cell. *)
let cell_prefix ~column ~pk = String.concat sep_str [ column; pk; "" ]

(* The timestamp field of an encoded key, without a full decode: it sits
   right after the cell prefix as 12 digits. *)
let ts_of_encoded ~prefix_len ekey = int_of_string (String.sub ekey prefix_len ts_width)

(* Range bounds covering every version of one cell. *)
let cell_bounds ~column ~pk =
  let p = cell_prefix ~column ~pk in
  (p, p ^ "\xff")

(* Range bounds covering all cells of a column whose pk lies in [lo, hi]. *)
let column_bounds ~column ~pk_lo ~pk_hi =
  ( Printf.sprintf "%s%c%s%c" column sep pk_lo sep,
    Printf.sprintf "%s%c%s%c\xff" column sep pk_hi sep )

let compare a b = String.compare (encode a) (encode b)

let pp fmt t =
  Format.fprintf fmt "%s/%s@%d#%s" t.column t.pk t.ts (Hash.short_hex t.vhash)
