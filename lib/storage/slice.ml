(* The shared byte-view vocabulary of the storage -> ledger -> WAL -> network
   spine. A slice is an immutable [(bytes, off, len)] window: taking one never
   copies, so node bytes can travel from an encoder's buffer into a hash, a
   CRC, a WAL batch, or a network frame without the intermediate strings the
   old [Buffer.contents]-everywhere paths allocated per operation.

   Immutability is a protocol, not a type: [of_string] views the string's
   own bytes (strings are immutable, so that view is always safe), while a
   slice over a writer's buffer is valid only until the writer is mutated
   again. Every producer of such a transient slice documents the window. *)

type t = { base : Bytes.t; off : int; len : int }

let empty = { base = Bytes.empty; off = 0; len = 0 }

(* Strings are immutable; viewing one as bytes without copying is safe as
   long as nobody writes through the alias — slices expose no mutation. *)
let of_string s = { base = Bytes.unsafe_of_string s; off = 0; len = String.length s }

let of_bytes ?(pos = 0) ?len base =
  let blen = Bytes.length base in
  let len = match len with Some l -> l | None -> blen - pos in
  if pos < 0 || len < 0 || pos > blen - len then
    invalid_arg
      (Printf.sprintf "Slice.of_bytes: pos %d len %d out of bounds (length %d)" pos len blen);
  { base; off = pos; len }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Slice.get: index out of bounds";
  Bytes.unsafe_get t.base (t.off + i)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos > t.len - len then
    invalid_arg
      (Printf.sprintf "Slice.sub: pos %d len %d out of bounds (length %d)" pos len t.len);
  { base = t.base; off = t.off + pos; len }

let to_string t = Bytes.sub_string t.base t.off t.len

let blit t dst dst_off = Bytes.blit t.base t.off dst dst_off t.len

let equal a b =
  a.len = b.len
  && (let rec go i =
        i >= a.len
        || (Bytes.unsafe_get a.base (a.off + i) = Bytes.unsafe_get b.base (b.off + i)
            && go (i + 1))
      in
      go 0)

(* Escape hatches for the hashing / checksumming / write paths: the caller
   promises to only *read* [base] within [off, off+len). *)
let unsafe_base t = t.base
let unsafe_off t = t.off

(* Growable byte buffer whose contents can be consumed in place — the
   difference from [Stdlib.Buffer] is [view]/[unsafe_bytes]: the accumulated
   bytes are reachable without the [Buffer.contents] copy, so a digest, CRC,
   file write, or frame blit can stream straight out of the encoder. *)
module Writer = struct
  type w = { mutable buf : Bytes.t; mutable len : int }

  let create ?(size = 256) () = { buf = Bytes.create (max 16 size); len = 0 }

  let length w = w.len

  let clear w = w.len <- 0

  let capacity w = Bytes.length w.buf

  let clear_within w cap =
    w.len <- 0;
    if Bytes.length w.buf > cap then w.buf <- Bytes.create (max 16 cap)

  let grow w needed =
    let cap = ref (Bytes.length w.buf) in
    while !cap < needed do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit w.buf 0 bigger 0 w.len;
    w.buf <- bigger

  let[@inline] ensure w extra =
    if w.len + extra > Bytes.length w.buf then grow w (w.len + extra)

  let add_char w c =
    ensure w 1;
    Bytes.unsafe_set w.buf w.len c;
    w.len <- w.len + 1

  let add_string w s =
    let n = String.length s in
    ensure w n;
    Bytes.blit_string s 0 w.buf w.len n;
    w.len <- w.len + n

  let add_substring w s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then
      invalid_arg "Slice.Writer.add_substring: out of bounds";
    ensure w len;
    Bytes.blit_string s pos w.buf w.len len;
    w.len <- w.len + len

  let add_bytes w b pos len =
    if pos < 0 || len < 0 || pos > Bytes.length b - len then
      invalid_arg "Slice.Writer.add_bytes: out of bounds";
    ensure w len;
    Bytes.blit b pos w.buf w.len len;
    w.len <- w.len + len

  let add_slice w (s : t) =
    ensure w s.len;
    Bytes.blit s.base s.off w.buf w.len s.len;
    w.len <- w.len + s.len

  let contents w = Bytes.sub_string w.buf 0 w.len

  (* Valid until the next [add_*]/[clear]; a growth reallocates the base. *)
  let view w : t = { base = w.buf; off = 0; len = w.len }

  let unsafe_bytes w = w.buf
end
