(* Proof transport on the served read path. A verified read's proof is
   written straight into the connection's writer on the server and read
   straight out of the frame buffer by the session, so these tests pin
   what that must not change — the frame bytes, which must equal the
   string-proof encoding — and what it is for: no large temporaries per
   read, and per-connection buffers that do not keep their largest
   frame. *)

open Spitz_storage
module Server = Spitz_server.Server
module Session = Spitz_server.Session
module Frame = Spitz_server.Frame
module Ipc = Spitz_nonintrusive.Ipc
module Db = Spitz.Db

let key i = Printf.sprintf "k%05d" i

let load db n =
  for b = 0 to (n / 512) - 1 do
    ignore
      (Db.put_batch db (List.init 512 (fun i -> let k = key ((b * 512) + i) in (k, "v-" ^ k))))
  done

let with_server db f =
  let server = Server.start ~config:{ Server.default_config with accept_domains = 1 } db in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let connect server =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let really_read fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off < len then begin
      let n = Unix.read fd buf off (len - off) in
      if n = 0 then failwith "connection closed mid-frame";
      go (off + n)
    end
  in
  go 0;
  Bytes.to_string buf

(* The server's answer to [req], as the raw bytes it put on the wire. *)
let served_frame fd req =
  Frame.write fd (Ipc.encode_request req);
  let head = really_read fd Frame.header_len in
  let len = Int32.to_int (String.get_int32_le head 0) land 0xFFFFFFFF in
  head ^ really_read fd len

let frame_of (r : Ipc.response) = Frame.encode (Ipc.encode_response r)

let check_frame what expected got =
  Alcotest.(check bool) (what ^ ": frame bytes equal the string-proof frame") true (expected = got)

let pin db height = Option.get (Db.snapshot ~height db)

(* --- the frame-bytes pin --- *)

let misses () = (Db.proof_cache_stats ()).Node_cache.misses
let hits () = (Db.proof_cache_stats ()).Node_cache.hits

let test_proof_frames_pinned () =
  let db = Db.open_db () in
  load db 2048;
  ignore (Db.put_batch db [ ("k00007", "changed"); ("k00009", "also") ]);
  let h = Db.L.height (Db.ledger db) - 1 in
  with_server db @@ fun server ->
  let fd = connect server in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let get what k ~hit =
    let hits0 = hits () and misses0 = misses () in
    let got = served_frame fd (Ipc.SnapGet (h, k)) in
    if hit then Alcotest.(check int) (what ^ ": proof-cache hit") (hits0 + 1) (hits ())
    else Alcotest.(check int) (what ^ ": proof-cache miss") (misses0 + 1) (misses ());
    let value, proof = Db.Snapshot.get_verified (pin db h) k in
    check_frame what (frame_of (Ipc.ValueProof (value, Some (Db.L.encode_read_proof proof)))) got
  in
  Db.L.clear_proof_cache ();
  get "present key, miss" "k00007" ~hit:false;
  get "present key, hit" "k00007" ~hit:true;
  get "absent key, miss" "k99999" ~hit:false;
  get "absent key, hit" "k99999" ~hit:true;
  let range what lo hi =
    let got = served_frame fd (Ipc.SnapRange (h, lo, hi)) in
    let entries, proof = Db.Snapshot.range_verified (pin db h) ~lo ~hi in
    check_frame what (frame_of (Ipc.EntriesProof (entries, Some (Db.L.encode_read_proof proof)))) got;
    List.length entries
  in
  Alcotest.(check int) "16-key range" 16 (range "range" "k00100" "k00115");
  Alcotest.(check int) "empty range" 0 (range "empty range" "k00100a" "k00100b");
  let keys = [ "k00009"; "nope"; "k02047"; "k00001" ] in
  let got = served_frame fd (Ipc.GetBatch (h, keys)) in
  let values, proof = Db.Snapshot.get_batch_verified (pin db h) keys in
  check_frame "batch" (frame_of (Ipc.BatchProof (values, Db.L.encode_batch_proof proof))) got;
  (* a height past the head is an [Error], answered with the message the
     same read raises in process *)
  let msg =
    match Db.Snapshot.get_verified (pin db (h + 5)) "k00001" with
    | exception Invalid_argument msg -> msg
    | _ -> Alcotest.fail "a pin past the head must raise"
  in
  check_frame "error" (frame_of (Ipc.Error msg)) (served_frame fd (Ipc.SnapGet (h + 5, "k00001")))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_below_horizon_frame () =
  let dir = Filename.temp_file "spitz_transport" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d = Db.open_durable dir in
  let db = Db.durable_db d in
  List.iter (fun k -> ignore (Db.put db k "v")) [ "a"; "b"; "c" ];
  Db.checkpoint d;
  Db.close_durable d;
  let d = Db.open_durable dir in
  Fun.protect ~finally:(fun () -> Db.close_durable d) @@ fun () ->
  let db = Db.durable_db d in
  Alcotest.(check int) "horizon at the head" 2 (Db.horizon db);
  with_server db @@ fun server ->
  let fd = connect server in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter
    (fun req -> check_frame "below the horizon" (frame_of (Ipc.Below_horizon 2)) (served_frame fd req))
    [ Ipc.SnapGet (0, "a"); Ipc.SnapRange (1, "a", "z"); Ipc.GetBatch (0, [ "a"; "b" ]) ]

(* A failure raised after part of an answer was written leaves exactly the
   failure's answer, not the part. *)
let test_partial_answer_replaced () =
  let db = Db.open_db () in
  ignore (Db.put db "a" "1");
  let value, proof = Db.Snapshot.get_verified (pin db 0) "a" in
  let out = Wire.writer () in
  let partly raise_it w =
    Wire.write_byte w 'V';
    Wire.write_string w (Option.get value);
    Wire.write_byte w '\001';
    Db.L.write_read_proof w proof;
    raise_it ()
  in
  Server.respond out (partly (fun () -> failwith "boom"));
  Alcotest.(check string) "Error after a partial answer" (Ipc.encode_response (Ipc.Error "boom"))
    (Wire.contents out);
  Server.respond out (partly (fun () -> raise (Db.Below_horizon { height = 0; horizon = 7 })));
  Alcotest.(check string) "Below_horizon after a partial answer"
    (Ipc.encode_response (Ipc.Below_horizon 7)) (Wire.contents out);
  (* and an answer that does not fail is written as it is *)
  Server.respond out (fun w ->
      Ipc.write_answer ~read:Db.L.write_read_proof ~batch:Db.L.write_batch_proof w
        (Ipc.ValueProof (value, Some proof)));
  Alcotest.(check string) "a whole answer"
    (Ipc.encode_response (Ipc.ValueProof (value, Some (Db.L.encode_read_proof proof))))
    (Wire.contents out)

(* The in-place codecs read what the string codecs wrote, and the other way
   round; a nested proof window must be consumed exactly. *)
let test_answer_codecs_agree () =
  let db = Db.open_db () in
  load db 512;
  let snap = pin db 0 in
  let value, proof = Db.Snapshot.get_verified snap (key 3) in
  let entries, rproof = Db.Snapshot.range_verified snap ~lo:(key 10) ~hi:(key 20) in
  let values, bproof = Db.Snapshot.get_batch_verified snap [ key 1; "nope" ] in
  let decode r =
    Ipc.decode_answer ~read:Db.L.read_read_proof ~batch:Db.L.read_batch_proof
      (Slice.of_string (Ipc.encode_response r))
  in
  (match decode (Ipc.ValueProof (value, Some (Db.L.encode_read_proof proof))) with
   | Ipc.ValueProof (v, Some p) ->
     Alcotest.(check (option string)) "value" value v;
     Alcotest.(check string) "read proof" (Db.L.encode_read_proof proof) (Db.L.encode_read_proof p)
   | _ -> Alcotest.fail "ValueProof");
  (match decode (Ipc.EntriesProof (entries, Some (Db.L.encode_read_proof rproof))) with
   | Ipc.EntriesProof (es, Some p) ->
     Alcotest.(check (list (pair string string))) "entries" entries es;
     Alcotest.(check string) "range proof" (Db.L.encode_read_proof rproof) (Db.L.encode_read_proof p)
   | _ -> Alcotest.fail "EntriesProof");
  (match decode (Ipc.BatchProof (values, Db.L.encode_batch_proof bproof)) with
   | Ipc.BatchProof (vs, p) ->
     Alcotest.(check (list (option string))) "values" values vs;
     Alcotest.(check string) "batch proof" (Db.L.encode_batch_proof bproof) (Db.L.encode_batch_proof p)
   | _ -> Alcotest.fail "BatchProof");
  (* a proof window one byte longer than the proof is malformed *)
  let padded = Ipc.ValueProof (value, Some (Db.L.encode_read_proof proof ^ "\000")) in
  (match decode padded with
   | exception Wire.Malformed _ -> ()
   | _ -> Alcotest.fail "trailing bytes in a proof window must be malformed");
  (* the opaque codec still carries them *)
  Alcotest.(check bool) "opaque round trip" true
    (Ipc.decode_response (Ipc.encode_response padded) = padded)

let test_nested_matches_string () =
  List.iter
    (fun n ->
       let s = String.init n (fun i -> Char.chr (i land 0xff)) in
       let a = Wire.writer ~size:16 () and b = Wire.writer ~size:16 () in
       Wire.write_byte a 'x';
       Wire.write_string a s;
       Wire.write_byte b 'x';
       Wire.write_nested b (fun w s -> Slice.Writer.add_string w s) s;
       Alcotest.(check string) (Printf.sprintf "%d bytes" n) (Wire.contents a) (Wire.contents b);
       let r = Wire.reader (Wire.contents b) in
       ignore (Wire.read_byte r);
       Alcotest.(check string) "read back" s
         (Wire.read_nested r (fun r -> Slice.to_string (Wire.read_raw r (Wire.remaining r)))))
    [ 0; 1; 127; 128; 300; 16_383; 16_384; 70_000 ]

(* --- allocation on the served read path --- *)

(* Words allocated straight into the major heap per call of [f]: OCaml 5.1
   mallocs every block over 256 words there, and frees it only when a major
   cycle sweeps it. Promotions are what the heap keeps, not temporaries,
   and are left out. *)
let major_direct_per_op n f =
  for i = 0 to 63 do f i done;
  let _, promoted0, major0 = Gc.counters () in
  for i = 0 to n - 1 do f i done;
  let _, promoted1, major1 = Gc.counters () in
  (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int n

let test_verified_reads_allocate_no_large_blocks () =
  let db = Db.open_db () in
  load db 16_384;
  with_server db @@ fun server ->
  let s = Session.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  Session.sync s;
  let stride = 7919 in
  let read =
    major_direct_per_op 2000 (fun i ->
        let k = key (i * stride mod 16_384) in
        if Session.get_verified s k <> Some ("v-" ^ k) then Alcotest.fail "verified read")
  in
  let range =
    major_direct_per_op 500 (fun i ->
        let lo = i * stride mod 16_000 in
        if List.length (Session.range_verified s ~lo:(key lo) ~hi:(key (lo + 15))) <> 16 then
          Alcotest.fail "verified range")
  in
  Printf.printf "major-heap words per verified read %.1f, per 16-key range %.1f\n" read range;
  Alcotest.(check bool) (Printf.sprintf "read: %.1f direct major words/op <= 16" read) true
    (read <= 16.);
  Alcotest.(check bool) (Printf.sprintf "range: %.1f direct major words/op <= 16" range) true
    (range <= 16.)

(* --- bounded per-connection buffers --- *)

let test_scratch_bounded () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  let sa = Frame.scratch () and sb = Frame.scratch () in
  let big = String.init (1 lsl 20) (fun i -> Char.chr (i * 31 land 0xff)) in
  let writer = Thread.create (fun () -> Frame.write_slices ~scratch:sa a [ Slice.of_string big ]) () in
  let got = Slice.to_string (Frame.read_slice sb b) in
  Thread.join writer;
  Alcotest.(check bool) "1 MiB frame received intact" true (got = big);
  for i = 1 to 8 do
    let small = String.make (100 * i) (Char.chr (64 + i)) in
    Frame.write_slices ~scratch:sa a [ Slice.of_string small ];
    Alcotest.(check string) "small frame" small (Slice.to_string (Frame.read_slice sb b));
    Frame.write_slices ~scratch:sb b [ Slice.of_string small ];
    Alcotest.(check string) "small frame back" small (Frame.read ~scratch:sa a)
  done;
  Alcotest.(check bool) "sender keeps at most 64 KiB" true (Frame.retained sa <= Frame.max_retained);
  Alcotest.(check bool) "receiver keeps at most 64 KiB" true (Frame.retained sb <= Frame.max_retained);
  Alcotest.(check int) "the bound is 64 KiB" 65_536 Frame.max_retained;
  (* the encode writers keep the same bound *)
  let w = Wire.writer () in
  Slice.Writer.add_string w big;
  Slice.Writer.clear_within w Frame.max_retained;
  Alcotest.(check bool) "writer dropped its 1 MiB buffer" true
    (Slice.Writer.capacity w <= Frame.max_retained);
  Alcotest.(check int) "and is empty" 0 (Wire.length w)

(* A 1 MiB value through the server and back: the one-off buffers carry it,
   and the connection keeps serving small answers. *)
let test_large_frame_served () =
  let db = Db.open_db () in
  with_server db @@ fun server ->
  let s = Session.connect ~port:(Server.port server) () in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  let big = String.make (1 lsl 20) 'v' in
  ignore (Session.put s "big" big);
  Alcotest.(check bool) "1 MiB verified read" true (Session.get_verified s "big" = Some big);
  ignore (Session.put s "small" "v");
  Alcotest.(check (option string)) "then a small one" (Some "v") (Session.get_verified s "small");
  Alcotest.(check int) "no verification failures" 0 (Session.failures s)

(* The conditional Apply's request and the Conflict answer, byte for
   byte: a fresh request tag ['I'] — none of the retired ones — whose read
   heights travel plus one, so a read before the first block (-1) is 0;
   and the ['c'] answer. The plain [Apply] of the same batch keeps its
   ['T'] frame. *)
let test_apply_if_frames_pinned () =
  let req =
    Ipc.Apply_if { token = "t"; reads = [ ("k", -1); ("j", 5) ]; puts = [ ("k", "v") ]; deletes = [ "d" ] }
  in
  let bytes = "I\001t\002\001k\000\001j\006\001\001k\001v\001\001d" in
  Alcotest.(check string) "Apply_if bytes" bytes (Ipc.encode_request req);
  Alcotest.(check bool) "Apply_if decodes" true (Ipc.decode_request bytes = req);
  Alcotest.(check string) "Apply bytes" "T\001t\001\001k\001v\001\001d"
    (Ipc.encode_request (Ipc.Apply { token = "t"; puts = [ ("k", "v") ]; deletes = [ "d" ] }));
  let conflict = Ipc.Conflict { key = "k"; height = 300 } in
  Alcotest.(check string) "Conflict bytes" "c\001k\xac\x02" (Ipc.encode_response conflict);
  Alcotest.(check bool) "Conflict decodes" true (Ipc.decode_response "c\001k\xac\x02" = conflict)

let suite =
  [
    Alcotest.test_case "proof answers: frames equal the string-proof frames" `Quick
      test_proof_frames_pinned;
    Alcotest.test_case "Below_horizon answers: frames pinned" `Quick test_below_horizon_frame;
    Alcotest.test_case "a failure after a partial answer leaves only the failure" `Quick
      test_partial_answer_replaced;
    Alcotest.test_case "in-place and string proof codecs agree" `Quick test_answer_codecs_agree;
    Alcotest.test_case "nested encoding = length-prefixed string" `Quick test_nested_matches_string;
    Alcotest.test_case "verified reads allocate no large blocks" `Quick
      test_verified_reads_allocate_no_large_blocks;
    Alcotest.test_case "frame scratch keeps at most 64 KiB" `Quick test_scratch_bounded;
    Alcotest.test_case "a 1 MiB frame served, then small ones" `Quick test_large_frame_served;
    Alcotest.test_case "Apply_if and Conflict frames pinned" `Quick test_apply_if_frames_pinned;
  ]
