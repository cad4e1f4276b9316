module K = Spitz_workload.Keygen

type kind =
  | Bit_flip
  | Byte_set
  | Truncate
  | Extend
  | Drop_span
  | Dup_span
  | Swap_spans

let kinds = [| Bit_flip; Byte_set; Truncate; Extend; Drop_span; Dup_span; Swap_spans |]

(* Span lengths are drawn small-biased: single-byte damage exercises fine
   field boundaries, longer spans exercise structural reshaping. *)
let span_len rng max_len = 1 + K.int rng (min max_len (1 + K.int rng 16))

let apply rng kind data =
  let n = String.length data in
  match kind with
  | Bit_flip ->
    if n = 0 then data
    else begin
      let b = Bytes.of_string data in
      let i = K.int rng n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl K.int rng 8)));
      Bytes.to_string b
    end
  | Byte_set ->
    if n = 0 then data
    else begin
      let b = Bytes.of_string data in
      Bytes.set b (K.int rng n) (Char.chr (K.int rng 256));
      Bytes.to_string b
    end
  | Truncate -> if n = 0 then data else String.sub data 0 (K.int rng n)
  | Extend ->
    data ^ String.init (span_len rng 16) (fun _ -> Char.chr (K.int rng 256))
  | Drop_span ->
    if n = 0 then data
    else begin
      let len = span_len rng n in
      let start = K.int rng (n - len + 1) in
      String.sub data 0 start ^ String.sub data (start + len) (n - start - len)
    end
  | Dup_span ->
    if n = 0 then data
    else begin
      let len = span_len rng n in
      let start = K.int rng (n - len + 1) in
      let span = String.sub data start len in
      String.sub data 0 start ^ span ^ span ^ String.sub data (start + len) (n - start - len)
    end
  | Swap_spans ->
    if n < 2 then data
    else begin
      let len = 1 + K.int rng (min (n / 2) 16) in
      let a = K.int rng (n - 2 * len + 1) in
      let b = a + len + K.int rng (n - a - 2 * len + 1) in
      String.concat ""
        [
          String.sub data 0 a;
          String.sub data b len;
          String.sub data (a + len) (b - a - len);
          String.sub data a len;
          String.sub data (b + len) (n - b - len);
        ]
    end

let random rng data =
  let mutated = apply rng kinds.(K.int rng (Array.length kinds)) data in
  if not (String.equal mutated data) then mutated
  else if String.length data = 0 then String.make 1 (Char.chr (K.int rng 256))
  else apply rng Bit_flip data
