(* Minimal length-prefixed binary encoding shared by every serialized node
   format (ADT nodes, ledger blocks, commits). Deterministic by construction,
   which matters because node identity is the hash of these bytes.

   Writers are [Slice.Writer]s, so the encoded bytes are consumable in
   place: {!digest} and {!leaf_digest} hash straight out of the buffer, and
   {!view} hands the bytes to the WAL or a network frame with no
   [Buffer.contents] copy. Readers are cursors over a [Slice.t] window —
   decoding a sub-slice of a larger buffer never copies the input first. *)

open Spitz_crypto

type writer = Slice.Writer.w

let writer ?size () = Slice.Writer.create ?size ()

let contents = Slice.Writer.contents
let length = Slice.Writer.length
let clear = Slice.Writer.clear
let view = Slice.Writer.view

(* Node identity straight from the encoder's buffer — no contents string. *)
let digest w = Hash.of_bytes_sub (Slice.Writer.unsafe_bytes w) ~pos:0 ~len:(Slice.Writer.length w)

let leaf_digest w =
  Hash.leaf_bytes (Slice.Writer.unsafe_bytes w) ~pos:0 ~len:(Slice.Writer.length w)

let write_varint buf n =
  if n < 0 then invalid_arg "Wire.write_varint: negative";
  let rec go n =
    if n < 0x80 then Slice.Writer.add_char buf (Char.chr n)
    else begin
      Slice.Writer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let write_string buf s =
  write_varint buf (String.length s);
  Slice.Writer.add_string buf s

let write_hash buf h = Slice.Writer.add_string buf (Hash.to_raw h)

let write_byte buf c = Slice.Writer.add_char buf c

let write_list buf write_item items =
  write_varint buf (List.length items);
  List.iter (write_item buf) items

let write_array buf write_item items =
  write_varint buf (Array.length items);
  Array.iter (write_item buf) items

let write_hash_list buf hashes = write_list buf (fun buf h -> write_hash buf h) hashes

let rec varint_width n = if n < 0x80 then 1 else 1 + varint_width (n lsr 7)

(* The item is encoded where its bytes end up, then moved right by the
   width of its length prefix, which is written into the gap: the bytes of
   [write_string buf (encode item)] with no intermediate string. *)
let write_nested buf write_item item =
  let start = length buf in
  write_item buf item;
  let len = length buf - start in
  let width = varint_width len in
  for _ = 1 to width do
    Slice.Writer.add_char buf '\000'
  done;
  let b = Slice.Writer.unsafe_bytes buf in
  Bytes.blit b start b (start + width) len;
  let rec put pos n =
    if n < 0x80 then Bytes.unsafe_set b pos (Char.unsafe_chr n)
    else begin
      Bytes.unsafe_set b pos (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      put (pos + 1) (n lsr 7)
    end
  in
  put start len

(* The cursor is absolute over the slice's base buffer: [pos] runs from the
   slice's offset to [limit]. Reads can never escape the window — a length
   running past [limit] is malformed even when the base buffer continues. *)
type reader = { base : Bytes.t; mutable pos : int; limit : int }

exception Malformed of string

let reader data =
  { base = Bytes.unsafe_of_string data; pos = 0; limit = String.length data }

let reader_of_slice s =
  let off = Slice.unsafe_off s in
  { base = Slice.unsafe_base s; pos = off; limit = off + Slice.length s }

let at_end r = r.pos >= r.limit

let remaining r = r.limit - r.pos

let read_varint r =
  let rec go shift acc =
    if shift > 62 then raise (Malformed "varint: overflow");
    if r.pos >= r.limit then raise (Malformed "varint: truncated");
    let b = Char.code (Bytes.unsafe_get r.base r.pos) in
    r.pos <- r.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  let n = go 0 0 in
  if n < 0 then raise (Malformed "varint: overflow");
  n

let read_string r =
  let len = read_varint r in
  if len < 0 || len > r.limit - r.pos then raise (Malformed "string: truncated");
  let s = Bytes.sub_string r.base r.pos len in
  r.pos <- r.pos + len;
  s

(* Length-prefixed payload as a sub-slice of the input — no copy; the slice
   shares the reader's (immutable or caller-owned) base. *)
let read_string_slice r =
  let len = read_varint r in
  if len < 0 || len > r.limit - r.pos then raise (Malformed "string: truncated");
  let s = Slice.of_bytes ~pos:r.pos ~len r.base in
  r.pos <- r.pos + len;
  s

let read_raw r len =
  if len < 0 || len > r.limit - r.pos then raise (Malformed "raw: truncated");
  let s = Slice.of_bytes ~pos:r.pos ~len r.base in
  r.pos <- r.pos + len;
  s

let skip r len =
  if len < 0 || len > r.limit - r.pos then raise (Malformed "skip: truncated");
  r.pos <- r.pos + len

let read_hash r =
  if r.pos + Hash.size > r.limit then raise (Malformed "hash: truncated");
  let s = Bytes.sub_string r.base r.pos Hash.size in
  r.pos <- r.pos + Hash.size;
  Hash.of_raw s

let read_count r =
  let n = read_varint r in
  (* Every well-formed element occupies at least one byte, so a claimed
     length beyond the remaining input is malformed — reject it before
     allocating anything proportional to the attacker-supplied count. *)
  if n > r.limit - r.pos then
    raise (Malformed (Printf.sprintf "list: %d elements exceed %d remaining bytes"
                        n (r.limit - r.pos)));
  n

let read_list r read_item = List.init (read_count r) (fun _ -> read_item r)
let read_array r read_item = Array.init (read_count r) (fun _ -> read_item r)

let read_hash_list r = read_list r read_hash

let read_nested r read_item =
  let len = read_varint r in
  if len > r.limit - r.pos then raise (Malformed "nested: truncated");
  let inner = { base = r.base; pos = r.pos; limit = r.pos + len } in
  let v = read_item inner in
  if not (at_end inner) then raise (Malformed "nested: trailing bytes");
  r.pos <- inner.limit;
  v

let read_byte r =
  if r.pos >= r.limit then raise (Malformed "byte: truncated");
  let c = Bytes.unsafe_get r.base r.pos in
  r.pos <- r.pos + 1;
  c

(* Top-level decode of untrusted bytes: the whole input must be consumed, and
   whatever a structured reader trips over on adversarial input — a bad
   [String.sub], a [List.nth] past the end, a lookup miss — surfaces as
   [Malformed], never as a leaked internal exception. *)
let decode_reader name read r =
  match
    let v = read r in
    if not (at_end r) then raise (Malformed (name ^ ": trailing bytes"));
    v
  with
  | v -> v
  | exception (Malformed _ as e) -> raise e
  | exception (End_of_file | Not_found) -> raise (Malformed (name ^ ": truncated"))
  | exception Invalid_argument msg -> raise (Malformed (name ^ ": " ^ msg))
  | exception Failure msg -> raise (Malformed (name ^ ": " ^ msg))

let decode name read data = decode_reader name read (reader data)

let decode_slice name read s = decode_reader name read (reader_of_slice s)
