(* SHA-256 (FIPS 180-4) over the C compressors in sha256_stubs.c: SHA-NI
   on x86-64 CPUs that have it, portable C everywhere else, chosen by CPUID
   once per process. This module keeps the buffering of the streaming
   context; every call into C is [@@noalloc] and touches only the byte
   buffers passed to it. *)

type ctx = {
  st : Bytes.t;               (* 8 state words, native byte order (C-owned layout) *)
  buf : Bytes.t;              (* 64-byte block buffer *)
  mutable buf_len : int;      (* bytes currently in [buf] *)
  mutable total_len : int;    (* total message length in bytes *)
}

external c_init : Bytes.t -> unit = "spitz_sha256_init" [@@noalloc]

(* [c_blocks st b off n] compresses the [n] 64-byte blocks at [b.[off..]]. *)
external c_blocks : Bytes.t -> Bytes.t -> int -> int -> unit = "spitz_sha256_blocks"
[@@noalloc]

(* [c_finish st buf buf_len total out] pads the buffered tail of a
   [total]-byte message and writes the 32-byte digest into [out]. *)
external c_finish : Bytes.t -> Bytes.t -> int -> int -> Bytes.t -> unit
  = "spitz_sha256_finish"
[@@noalloc]

(* [c_digest b off len out]: the whole one-shot hash in one call. *)
external c_digest : Bytes.t -> int -> int -> Bytes.t -> unit = "spitz_sha256_digest"
[@@noalloc]

external c_digest_portable : Bytes.t -> int -> int -> Bytes.t -> unit
  = "spitz_sha256_digest_portable"
[@@noalloc]

external c_implementation : unit -> string = "spitz_sha256_implementation"

let implementation = c_implementation ()

let init () =
  let st = Bytes.create 32 in
  c_init st;
  { st; buf = Bytes.create 64; buf_len = 0; total_len = 0 }

let feed_bytes ctx b off len =
  ctx.total_len <- ctx.total_len + len;
  let off = ref off and len = ref len in
  (* Top up a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) !len in
    Bytes.blit b !off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    off := !off + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      c_blocks ctx.st ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let nblocks = !len / 64 in
  if nblocks > 0 then begin
    c_blocks ctx.st b !off nblocks;
    off := !off + (nblocks * 64);
    len := !len - (nblocks * 64)
  end;
  if !len > 0 then begin
    Bytes.blit b !off ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let feed_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.feed_sub: out of bounds";
  feed_bytes ctx (Bytes.unsafe_of_string s) off len

let finalize ctx =
  let out = Bytes.create 32 in
  c_finish ctx.st ctx.buf ctx.buf_len ctx.total_len out;
  Bytes.unsafe_to_string out

let digest_strings parts =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finalize ctx

let oneshot kernel b off len =
  let out = Bytes.create 32 in
  kernel b off len out;
  Bytes.unsafe_to_string out

(* One-shot digest of a byte range — the node-identity path hashes encoder
   buffers in place through this, with no intermediate string and no ctx. *)
let digest_bytes b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Sha256.digest_bytes: out of bounds";
  oneshot c_digest b off len

let digest_sub s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.digest_sub: out of bounds";
  oneshot c_digest (Bytes.unsafe_of_string s) off len

let digest_string s = oneshot c_digest (Bytes.unsafe_of_string s) 0 (String.length s)

module For_testing = struct
  let digest_portable b off len =
    if off < 0 || len < 0 || off > Bytes.length b - len then
      invalid_arg "Sha256.For_testing.digest_portable: out of bounds";
    oneshot c_digest_portable b off len
end
