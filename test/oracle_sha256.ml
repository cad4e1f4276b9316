(* Reference SHA-256 (FIPS 180-4) in pure OCaml: the differential oracle
   for the C compressors behind [Spitz_crypto.Sha256]. It is the library's
   former implementation, kept only in the test tree; nothing outside the
   tests links it.

   32-bit words are kept in native ints (OCaml ints are 63-bit) and masked
   after additions. *)

type ctx = {
  h : int array;              (* 8 state words *)
  buf : Bytes.t;              (* 64-byte block buffer *)
  mutable buf_len : int;      (* bytes currently in [buf] *)
  mutable total_len : int;    (* total message length in bytes *)
  w : int array;              (* 64-word message schedule *)
}

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5;
  0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
  0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
  0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
  0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
  0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
  0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
  0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3;
  0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5;
  0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
  0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
|]

let mask = 0xFFFFFFFF

let init () = {
  h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
  buf = Bytes.create 64;
  buf_len = 0;
  total_len = 0;
  w = Array.make 64 0;
}

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* Compress one 64-byte block starting at [off] in [b]. *)
let compress ctx b off =
  let w = ctx.w in
  for i = 0 to 15 do
    let j = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.unsafe_get b j) lsl 24)
      lor (Char.code (Bytes.unsafe_get b (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (j + 3))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b' = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) land mask in
    let temp1 = (!hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = (!a land !b') lxor (!a land !c) lxor (!b' land !c) in
    let temp2 = (s0 + maj) land mask in
    hh := !g; g := !f; f := !e; e := (!d + temp1) land mask;
    d := !c; c := !b'; b' := !a; a := (temp1 + temp2) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b') land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

let feed_bytes ctx b off len =
  ctx.total_len <- ctx.total_len + len;
  let off = ref off and len = ref len in
  (* Top up a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let need = 64 - ctx.buf_len in
    let take = min need !len in
    Bytes.blit b !off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    off := !off + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !len >= 64 do
    compress ctx b !off;
    off := !off + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit b !off ctx.buf 0 !len;
    ctx.buf_len <- !len
  end

let feed_string ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let finalize ctx =
  let bit_len = ctx.total_len * 8 in
  (* Append 0x80, pad with zeros to 56 mod 64, then 8-byte big-endian length. *)
  let pad_len =
    let r = (ctx.buf_len + 1) mod 64 in
    if r <= 56 then 56 - r + 1 else 64 - r + 56 + 1
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  Bytes.set_int64_be pad pad_len (Int64.of_int bit_len);
  feed_bytes ctx pad 0 (Bytes.length pad);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest_string s =
  let ctx = init () in
  feed_string ctx s;
  finalize ctx
