open Spitz_storage

let header_len = 8 (* 4-byte length + 4-byte crc, both little-endian *)
let max_payload = 16 * 1024 * 1024

exception Closed

let encode payload =
  let len = String.length payload in
  if len > max_payload then invalid_arg "Frame.encode: payload too large";
  let head = Bytes.create header_len in
  Bytes.set_int32_le head 0 (Int32.of_int len);
  Bytes.set_int32_le head 4 (Crc32.digest payload);
  Bytes.unsafe_to_string head ^ payload

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd bytes (off + n) (len - n)
  end

let write fd payload =
  let frame = encode payload in
  write_all fd (Bytes.unsafe_of_string frame) 0 (String.length frame)

(* Per-connection reusable buffers: the 8-byte header scratch [read_slice]
   fills for every message, and one frame buffer that [write_slices]
   assembles outgoing frames in and [read_slice] reads payloads into. One
   connection is served by one thread, and it is done with a request's
   bytes before it writes the answer (a session, with its answer before
   the next request), so one buffer serves both directions without a lock;
   two connections never share a scratch. *)
type scratch = { head : Bytes.t; mutable buf : Bytes.t }

let max_retained = 64 * 1024

let scratch () = { head = Bytes.create header_len; buf = Bytes.create 4096 }

let retained s = Bytes.length s.buf

(* A buffer of at least [len] bytes: the scratch's own, grown by doubling up
   to [max_retained]; a larger frame gets a one-off buffer the scratch does
   not keep, so a connection's scratch never outgrows [max_retained]. *)
let buffer s len =
  if len <= Bytes.length s.buf then s.buf
  else if len > max_retained then Bytes.create len
  else begin
    let cap = ref (Bytes.length s.buf) in
    while !cap < len do cap := !cap * 2 done;
    s.buf <- Bytes.create (min !cap max_retained);
    s.buf
  end

(* Send one frame whose payload is the concatenation of [slices], without
   ever materializing that payload as a string: the CRC is folded across the
   slices in place, then header and payload are gathered into the reusable
   scratch and sent with a {e single} [write] — one syscall, and under
   TCP_NODELAY one packet, exactly like {!write}. *)
let write_slices ?scratch:sc fd slices =
  let len = List.fold_left (fun acc sl -> acc + Slice.length sl) 0 slices in
  if len > max_payload then invalid_arg "Frame.write_slices: payload too large";
  let s = match sc with Some s -> s | None -> scratch () in
  let b = buffer s (header_len + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  let crc =
    List.fold_left
      (fun c sl -> Crc32.update_bytes c (Slice.unsafe_base sl) (Slice.unsafe_off sl) (Slice.length sl))
      0l slices
  in
  Bytes.set_int32_le b 4 crc;
  let pos = ref header_len in
  List.iter (fun sl -> Slice.blit sl b !pos; pos := !pos + Slice.length sl) slices;
  write_all fd b 0 (header_len + len)

(* Fill [buf]'s first [len] bytes. [at_boundary] tells EOF apart: before
   any header byte it is a clean close ([Closed]); anywhere else the frame
   is torn ([End_of_file]). *)
let read_exact fd buf len ~at_boundary =
  let off = ref 0 in
  while !off < len do
    let n =
      try Unix.read fd buf !off (len - !off)
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    if n = 0 && !off = 0 && at_boundary then raise Closed
    else if n = 0 then raise End_of_file
    else off := !off + n
  done

(* One frame: the header into [head], the payload into [buffer len], checked
   against the header's CRC before any of it is handed out. *)
let read_frame fd head buffer =
  read_exact fd head header_len ~at_boundary:true;
  let len = Int32.to_int (Bytes.get_int32_le head 0) land 0xFFFFFFFF in
  if len > max_payload then
    raise (Wire.Malformed (Printf.sprintf "Frame: oversized length header %d" len));
  let crc = Bytes.get_int32_le head 4 in
  let payload = buffer len in
  read_exact fd payload len ~at_boundary:false;
  if Crc32.update_bytes 0l payload 0 len <> crc then raise (Wire.Malformed "Frame: CRC mismatch");
  Slice.of_bytes ~pos:0 ~len payload

let read_slice s fd = read_frame fd s.head (buffer s)

let read ?scratch fd =
  match scratch with
  | Some s -> Slice.to_string (read_slice s fd)
  | None ->
    (* a payload buffer of exactly the frame's length is the string itself *)
    Bytes.unsafe_to_string
      (Slice.unsafe_base (read_frame fd (Bytes.create header_len) Bytes.create))
