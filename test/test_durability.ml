open Spitz
open Spitz_storage

(* Persistence robustness: the write-ahead log, crash-point recovery, and
   the corruption handling of every persisted format. *)

let temp_file () = Filename.temp_file "spitz_dur" ".db"

let temp_dir () =
  let path = Filename.temp_file "spitz_dur" ".dir" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
        Fault.reset ();
        rm_rf dir)
    (fun () -> f dir)

let copy_truncated src dst n =
  let ic = open_in_bin src in
  let data = really_input_string ic n in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

(* Open [dir], whose snapshot a test has just written, and close it: the
   database it holds. An open that succeeds leaves a meta file and an empty
   log behind, which the next open reads again. *)
let open_snapshot dir =
  let d = Db.open_durable ~sync:Wal.Never dir in
  Db.close_durable d;
  Db.durable_db d

(* The log is a directory of numbered segments; byte-level corruption tests
   target individual segment files. *)
let wal_segments wal_dir =
  Sys.readdir wal_dir |> Array.to_list
  |> List.filter (fun f -> String.length f > 4 && String.sub f 0 4 = "wal.")
  |> List.sort compare
  |> List.map (Filename.concat wal_dir)

let last_wal_segment wal_dir =
  match List.rev (wal_segments wal_dir) with
  | last :: _ -> last
  | [] -> Alcotest.fail ("no wal segments in " ^ wal_dir)

(* --- CRC32 --- *)

let test_crc32_check_value () =
  (* the standard CRC-32/ISO-HDLC check value *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "oracle check value" 0xCBF43926l (Oracle_crc32.digest "123456789");
  Alcotest.(check int32) "empty" 0l (Crc32.digest "");
  Alcotest.(check int32) "incremental = whole" (Crc32.digest "hello world")
    (Crc32.update (Crc32.digest "hello ") "world")

(* --- WAL framing --- *)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let records = List.init 20 (fun i -> Printf.sprintf "record-%d-%s" i (String.make i 'x')) in
      let w = Wal.open_log ~sync:Wal.Always path in
      List.iter (Wal.append w) records;
      Wal.close w;
      let r = Wal.replay path in
      Alcotest.(check (list string)) "all records back" records r.Wal.records;
      Alcotest.(check int) "no torn tail" 0 r.Wal.torn_bytes;
      (* append after reopen extends, not overwrites *)
      let w = Wal.open_log path in
      Wal.append w "after-reopen";
      Wal.close w;
      let r = Wal.replay path in
      Alcotest.(check (list string)) "extended" (records @ [ "after-reopen" ]) r.Wal.records)

let test_wal_torn_tail_every_offset () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let records = [ "alpha"; "beta-beta"; "gamma-gamma-gamma" ] in
      let w = Wal.open_log path in
      List.iter (Wal.append w) records;
      Wal.close w;
      let seg = last_wal_segment path in
      let total = Fault.file_size seg in
      (* the segment header, then frames of 8-byte header + payload; a cut
         inside the segment header leaves nothing valid *)
      let head = String.length Wal.segment_header in
      let frame_ends =
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) r -> (off + 8 + String.length r, (off + 8 + String.length r) :: acc))
                (head, []) records))
      in
      let ends = 0 :: head :: frame_ends in
      for cut = 0 to total - 1 do
        let trunc = Filename.concat dir "trunc" in
        copy_truncated seg trunc cut;
        let r = Wal.replay_segment ~repair:false trunc in
        (* the valid prefix is exactly the records whose frames fit *)
        let expect = List.length (List.filter (fun e -> e <= cut) frame_ends) in
        Alcotest.(check int)
          (Printf.sprintf "records at cut %d" cut)
          expect
          (List.length r.Wal.records);
        Alcotest.(check int)
          (Printf.sprintf "good_bytes at cut %d" cut)
          (List.fold_left (fun best e -> if e <= cut then max best e else best) 0 ends)
          r.Wal.good_bytes;
        Sys.remove trunc
      done)

let test_wal_bitflip_tail () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log path in
      Wal.append w "first-record";
      Wal.append w "second-record";
      let sz_after_first = String.length Wal.segment_header + 8 + String.length "first-record" in
      Wal.append w "third-record";
      Wal.close w;
      (* flip a bit inside the second record's payload: replay must keep the
         first record only, and repair must truncate the file there *)
      let seg = last_wal_segment path in
      Fault.flip_bit seg ~byte:(sz_after_first + 10) ~bit:3;
      let r = Wal.replay ~repair:true path in
      Alcotest.(check (list string)) "prefix before the flip" [ "first-record" ] r.Wal.records;
      Alcotest.(check bool) "tail discarded" true (r.Wal.torn_bytes > 0);
      Alcotest.(check int) "file repaired" sz_after_first (Fault.file_size seg);
      (* the repaired log accepts appends again *)
      let w = Wal.open_log path in
      Wal.append w "fourth";
      Wal.close w;
      Alcotest.(check (list string)) "append after repair" [ "first-record"; "fourth" ]
        (Wal.replay path).Wal.records)

(* --- WAL group commit --- *)

let test_wal_submit_wait_coalesce () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:Wal.Always path in
      (* three submissions before anyone waits: nothing on disk yet *)
      let t1 = Wal.submit w "one" in
      let t2 = Wal.submit w "two" in
      let t3 = Wal.submit w "three" in
      let batch_bytes = (3 * 8) + String.length "onetwothree" in
      Alcotest.(check int) "nothing on disk before wait" 0 (Wal.stats w).Wal.disk_bytes;
      (* the unflushed batch is visible in size — a size-triggered
         checkpoint must see submitted-but-unflushed work *)
      Alcotest.(check int) "pending bytes counted" batch_bytes (Wal.stats w).Wal.pending_bytes;
      Alcotest.(check int) "size includes pending" batch_bytes (Wal.size w);
      (* one wait drives the whole batch durable — for every ticket *)
      Wal.wait w t2;
      Alcotest.(check int) "whole batch written" batch_bytes (Wal.stats w).Wal.disk_bytes;
      Alcotest.(check int) "nothing pending after flush" 0 (Wal.stats w).Wal.pending_bytes;
      Alcotest.(check int) "size agrees" batch_bytes (Wal.size w);
      Wal.wait w t1;
      Wal.wait w t3;
      Wal.close w;
      Alcotest.(check (list string)) "records in submission order"
        [ "one"; "two"; "three" ]
        (Wal.replay path).Wal.records)

let test_wal_group_policy_append () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:(Wal.Group { max_batch = 8; max_delay_us = 100 }) path in
      let records = List.init 10 (fun i -> Printf.sprintf "g%d" i) in
      List.iter (Wal.append w) records;
      Wal.close w;
      Alcotest.(check (list string)) "group policy roundtrip" records
        (Wal.replay path).Wal.records)

(* One or two committers never linger, however long the policy allows: a
   lone committer's linger slice only delays its own ack, and a pair does
   better overlapping each one's fsync with the other's commit work. *)
let test_wal_lone_committer_never_lingers () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:(Wal.Group { max_batch = 64; max_delay_us = 200_000 }) path in
      for i = 1 to 100 do
        Wal.append w (Printf.sprintf "lone-%03d" i)
      done;
      let st = Wal.stats w in
      Alcotest.(check int) "no linger slices" 0 st.Wal.lingers;
      Alcotest.(check int) "one fsync per record" 100 st.Wal.fsyncs;
      Wal.close w;
      Alcotest.(check int) "every record durable" 100 (List.length (Wal.replay path).Wal.records));
  (* two appender domains: each waits for its own record before the next,
     so no batch ever shows a third committer *)
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:(Wal.Group { max_batch = 64; max_delay_us = 200_000 }) path in
      let appenders =
        List.init 2 (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to 100 do
                  Wal.append w (Printf.sprintf "pair-%d-%03d" d i)
                done))
      in
      List.iter Domain.join appenders;
      Alcotest.(check int) "no linger slices at 2 committers" 0 (Wal.stats w).Wal.lingers;
      Wal.close w;
      Alcotest.(check int) "every pair record durable" 200
        (List.length (Wal.replay path).Wal.records));
  (* the same through the durable database, the served commit path *)
  with_dir (fun dir ->
      let d =
        Db.open_durable ~sync:(Wal.Group { max_batch = 64; max_delay_us = 200_000 })
          (Filename.concat dir "db")
      in
      let db = Db.durable_db d in
      for i = 1 to 50 do
        ignore (Db.put_batch db [ (Printf.sprintf "k%02d" i, "v"); ("shared", string_of_int i) ])
      done;
      Alcotest.(check int) "no linger slices in Db.commit" 0 (Db.wal_stats d).Wal.lingers;
      Db.close_durable d)

let test_wal_concurrent_appenders () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:(Wal.Group { max_batch = 4; max_delay_us = 200 }) path in
      let ndomains = 4 and per = 25 in
      let record d i = Printf.sprintf "d%d-%03d" d i in
      let domains =
        List.init ndomains (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  Wal.append w (record d i)
                done))
      in
      List.iter Domain.join domains;
      Wal.close w;
      let replayed = (Wal.replay path).Wal.records in
      Alcotest.(check int) "every record durable" (ndomains * per) (List.length replayed);
      (* each appender's records appear in its own append order — the log is
         some interleaving of the per-domain sequences, never a reordering *)
      for d = 0 to ndomains - 1 do
        let mine = List.filter (fun r -> r.[1] = Char.chr (Char.code '0' + d)) replayed in
        Alcotest.(check (list string))
          (Printf.sprintf "domain %d order preserved" d)
          (List.init per (record d))
          mine
      done)

let test_wal_crash_mid_batch () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:Wal.Always path in
      let tickets = List.map (Wal.submit w) [ "r0"; "r1"; "r2"; "r3" ] in
      Fault.arm "wal.flush.mid_batch";
      (match Wal.wait w (List.hd tickets) with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "mid-batch crash did not fire");
      Fault.reset ();
      (* the leader died after an exact prefix of the coalesced batch hit the
         file: recovery sees whole records, no torn tail to repair *)
      let r = Wal.replay path in
      Alcotest.(check (list string)) "exact record prefix" [ "r0"; "r1" ] r.Wal.records;
      Alcotest.(check int) "no torn bytes" 0 r.Wal.torn_bytes)

let test_wal_crash_before_sync_multi () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:Wal.Always path in
      let tickets = List.map (Wal.submit w) [ "s0"; "s1"; "s2" ] in
      Fault.arm "wal.append.before_sync";
      (match Wal.wait w (List.nth tickets 2) with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "before-sync crash did not fire");
      Fault.reset ();
      (* the whole coalesced write reached the file; only the fsync was lost —
         every record of the batch replays (none was acknowledged, so
         replaying them is allowed; losing them would also have been) *)
      Alcotest.(check (list string)) "batch written before crash" [ "s0"; "s1"; "s2" ]
        (Wal.replay path).Wal.records)

(* --- satellite bugfix: atomic snapshot write --- *)

let test_save_atomic_on_crash () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Never dir in
      let db = Db.durable_db d in
      ignore (Db.put db "k" "v1");
      Db.checkpoint d;
      let snap = Filename.concat dir "snapshot" in
      Alcotest.(check bool) "no temp left" false (Sys.file_exists (snap ^ ".tmp"));
      ignore (Db.put db "k" "v2");
      Fault.arm "save.before_rename";
      (match Db.checkpoint d with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "crash point did not fire");
      Db.close_durable d;
      (* the snapshot, opened without the log, still holds the old state *)
      with_dir (fun alone ->
          copy_truncated snap (Filename.concat alone "snapshot") (Fault.file_size snap);
          let db' = open_snapshot alone in
          Alcotest.(check (option string)) "pre-crash state intact" (Some "v1") (Db.get db' "k");
          Alcotest.(check int) "one block" 1 (Db.L.height (Db.ledger db'))))

(* --- satellite bugfix: varint bounds + Corrupt --- *)

let test_varint_overflow_rejected () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       (* 11 continuation bytes: an unbounded decoder would shift past the
          word size; ours must raise Corrupt, not misbehave *)
       let oc = open_out_bin path in
       output_string oc (String.make 11 '\xff');
       close_out oc;
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () ->
            match Object_store.restore (Object_store.create ()) ic with
            | exception Object_store.Corrupt _ -> ()
            | () -> Alcotest.fail "overflowing varint accepted"))

let test_negative_length_rejected () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       (* object count 1, then a 9-byte varint encoding a value with bit 62
          set — negative as an OCaml int; must be Corrupt, not an
          [Invalid_argument] from really_input_string *)
       let oc = open_out_bin path in
       output_string oc "\x01";
       output_string oc "\x80\x80\x80\x80\x80\x80\x80\x80\x40";
       close_out oc;
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () ->
            match Object_store.restore (Object_store.create ()) ic with
            | exception Object_store.Corrupt _ -> ()
            | () -> Alcotest.fail "negative length accepted"))

let test_oversized_length_rejected () =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       (* an object claiming to be 1 GiB in a 10-byte file: must be rejected
          before any allocation *)
       let oc = open_out_bin path in
       output_string oc "\x01";
       output_string oc "\x80\x80\x80\x80\x04"; (* varint 2^30 *)
       output_string oc "data";
       close_out oc;
       let ic = open_in_bin path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () ->
            match Object_store.restore (Object_store.create ()) ic with
            | exception Object_store.Corrupt _ -> ()
            | () -> Alcotest.fail "oversized length accepted"))

(* --- the snapshot record's count field is inert --- *)

(* A dumped stream is [varint n] then n records [varint length | bytes |
   varint count]. [parse_records] returns each record's bytes and count. *)
let parse_records stream =
  let pos = ref 0 in
  let varint () =
    let rec go shift acc =
      let b = Char.code stream.[!pos] in
      incr pos;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0
  in
  let n = varint () in
  let records =
    List.init n (fun _ ->
        let len = varint () in
        let data = String.sub stream !pos len in
        pos := !pos + len;
        let count = varint () in
        (data, count))
  in
  Alcotest.(check int) "stream fully parsed" (String.length stream) !pos;
  records

let rec varint_bytes n =
  if n < 0x80 then String.make 1 (Char.chr n)
  else String.make 1 (Char.chr (0x80 lor (n land 0x7f))) ^ varint_bytes (n lsr 7)

let with_stream_file write read =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let oc = open_out_bin path in
       Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc);
       let ic = open_in_bin path in
       Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic))

let test_snapshot_count_field_inert () =
  let s = Object_store.create () in
  ignore (Object_store.put s "twice");
  ignore (Object_store.put s "twice");
  let big = String.init 100_000 (fun i -> Char.chr (i * 31 mod 256)) in
  let h = Object_store.put_blob s big in
  Alcotest.(check bool) "chunked" true (List.length (Object_store.blob_parts s h) > 1);
  let live = Spitz_crypto.Hash.Table.create 16 in
  Object_store.fold s (fun h _ () -> Spitz_crypto.Hash.Table.replace live h ()) ();
  let stream =
    with_stream_file (Object_store.dump ~live s) (fun ic ->
        really_input_string ic (in_channel_length ic))
  in
  let records = parse_records stream in
  Alcotest.(check int) "one record per object" (Object_store.object_count s) (List.length records);
  List.iter (fun (_, count) -> Alcotest.(check int) "count written as 1" 1 count) records;
  let contents st =
    List.sort compare
      (Object_store.fold st (fun h data acc -> (Spitz_crypto.Hash.to_hex h, data) :: acc) [])
  in
  let physical st = (Object_store.stats st).Object_store.physical_bytes in
  (* 300 is a two-byte varint *)
  List.iter
    (fun count ->
       let hand_built =
         varint_bytes (List.length records)
         ^ String.concat ""
             (List.map
                (fun (data, _) -> varint_bytes (String.length data) ^ data ^ varint_bytes count)
                records)
       in
       let r = Object_store.create () in
       with_stream_file (fun oc -> output_string oc hand_built) (Object_store.restore r);
       let what = Printf.sprintf "count %d" count in
       Alcotest.(check (list (pair string string))) (what ^ ": objects") (contents s) (contents r);
       Alcotest.(check int) (what ^ ": object_count") (Object_store.object_count s)
         (Object_store.object_count r);
       Alcotest.(check int) (what ^ ": physical_bytes") (physical s) (physical r))
    [ 0; 1; 300 ]

(* --- snapshot corruption: truncation at every offset, bit flips --- *)

let small_keys = List.init 5 (Printf.sprintf "k%d")

let small_writes db =
  List.iteri (fun i key -> ignore (Db.put db key (Printf.sprintf "value-%d" i))) small_keys

let small_db () =
  let db = Db.open_db () in
  small_writes db;
  db

(* A checkpoint's snapshot: every body and value, but only the head
   block's index instance. *)
let checkpoint_small path =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Never dir in
      small_writes (Db.durable_db d);
      Db.checkpoint d;
      Db.close_durable d;
      let snap = Filename.concat dir "snapshot" in
      copy_truncated snap path (Fault.file_size snap))

(* [f] on the path of a checkpoint's snapshot of [small_db], and the
   snapshot path of a temporary directory to write its variants to. *)
let with_small_snapshot f =
  let path = temp_file () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       checkpoint_small path;
       with_dir (fun dir -> f path dir (Filename.concat dir "snapshot")))

let test_compacted_truncation_every_offset () =
  with_small_snapshot @@ fun path dir snap ->
  let total = Fault.file_size path in
  for cut = 0 to total - 1 do
    copy_truncated path snap cut;
    match open_snapshot dir with
    | exception Db.Corrupt _ -> ()
    | exception e -> Alcotest.failf "cut at %d leaked %s" cut (Printexc.to_string e)
    | _ -> Alcotest.failf "cut at %d accepted a strict prefix" cut
  done

let test_compacted_bitflip_no_silent_corruption () =
  with_small_snapshot @@ fun path dir snap ->
  let live = small_db () in
  let histories db = List.map (Db.history db) small_keys in
  let total = Fault.file_size path in
  (* a flipped bit must either surface as Corrupt or leave the reopened
     database bit-identical (flips in a record's inert count field) —
     never a silently different ledger or cell, never a foreign
     exception *)
  let step = max 1 (total / 200) in
  let off = ref 0 in
  while !off < total do
    copy_truncated path snap total;
    Fault.flip_bit snap ~byte:!off ~bit:(!off mod 8);
    (match open_snapshot dir with
     | exception Db.Corrupt _ -> ()
     | exception e -> Alcotest.failf "flip at %d leaked %s" !off (Printexc.to_string e)
     | db' ->
       Alcotest.(check bool)
         (Printf.sprintf "flip at %d: digest intact" !off)
         true
         (Spitz_crypto.Hash.equal (Db.digest live).Spitz_ledger.Journal.root
            (Db.digest db').Spitz_ledger.Journal.root
          && Db.audit db');
       Alcotest.(check (list (list (pair int string))))
         (Printf.sprintf "flip at %d: histories intact" !off)
         (histories live) (histories db'));
    off := !off + step
  done

(* A value blob is one object record: its length, its bytes, its count.
   A flipped bit inside the bytes re-hashes to an address no block entry
   names, so the value is gone from the store: the open must fail, not
   come up with the cell silently missing. *)
let test_compacted_value_flip_is_corrupt () =
  with_small_snapshot @@ fun path dir snap ->
  copy_truncated path snap (Fault.file_size path);
  let bytes = In_channel.with_open_bin snap In_channel.input_all in
  let record = "\007value-2" in
  let rec find i =
    if i + String.length record > String.length bytes then
      Alcotest.fail "value-2's object record not found"
    else if String.sub bytes i (String.length record) = record then i
    else find (i + 1)
  in
  Fault.flip_bit snap ~byte:(find 0 + 3) ~bit:0;
  match open_snapshot dir with
  | exception Db.Corrupt _ -> ()
  | _ -> Alcotest.fail "a damaged value blob opened without Corrupt"

(* A checkpoint's snapshot opens with the live database's digest, cells
   and audit, its horizon at the head block: the live in-memory database
   keeps every instance. *)
let test_compacted_snapshot_loads () =
  with_small_snapshot @@ fun path dir snap ->
  copy_truncated path snap (Fault.file_size path);
  let a = small_db () and b = open_snapshot dir in
  Alcotest.(check bool) "same digest" true (Db.digest a = Db.digest b);
  Alcotest.(check int) "the live database keeps every instance" 0 (Db.horizon a);
  Alcotest.(check int) "checkpoint keeps the head's" 4 (Db.horizon b);
  Alcotest.(check bool) "audit" true (Db.audit b);
  for i = 0 to 4 do
    let key = Printf.sprintf "k%d" i in
    Alcotest.(check (list (pair int string))) (key ^ " history") (Db.history a key)
      (Db.history b key)
  done

(* A reopen from a checkpoint restores only the head block's index
   instance. A later checkpoint leaves the horizon where it is, and every
   instance from it up stays readable. *)
let test_compact_after_compacting_reopen () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      for i = 0 to 39 do
        ignore (Db.put db (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
      done;
      Db.checkpoint d;
      Db.close_durable d;
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      Alcotest.(check int) "reopened at the head's instance" 39 (Db.horizon db);
      ignore (Db.put db "k40" "v40");
      Db.checkpoint d;
      Alcotest.(check int) "horizon unchanged" 39 (Db.horizon db);
      Alcotest.(check bool) "audit" true (Db.audit db);
      List.iter
        (fun height ->
           match Db.snapshot ~height db with
           | None -> Alcotest.fail "no snapshot"
           | Some s ->
             let value, proof = Db.Snapshot.get_verified s "k39" in
             Alcotest.(check (option string)) "retained instance reads" (Some "v39") value;
             Alcotest.(check bool) "and verifies" true
               (Db.verify_read ~digest:(Db.Snapshot.digest s) ~key:"k39" ~value proof))
        [ 39; 40 ];
      Db.close_durable d)

(* --- durable database: basic operation --- *)

let test_durable_basic_roundtrip () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      for i = 0 to 9 do
        ignore (Db.put db (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
      done;
      let digest = Db.digest db in
      Db.close_durable d;
      (* no checkpoint ever taken: recovery is pure log replay *)
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check int) "height recovered" 10
        (Db.digest db').Spitz_ledger.Journal.size;
      Alcotest.(check bool) "digest identical" true
        (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
           (Db.digest db').Spitz_ledger.Journal.root);
      for i = 0 to 9 do
        Alcotest.(check (option string))
          (Printf.sprintf "k%d" i)
          (Some (Printf.sprintf "v%d" i))
          (Db.get db' (Printf.sprintf "k%d" i))
      done;
      Alcotest.(check bool) "audit" true (Db.audit db');
      (* writes keep flowing to the log after recovery *)
      ignore (Db.put db' "k10" "v10");
      Db.close_durable d';
      let d'' = Db.open_durable dir in
      Alcotest.(check int) "one more block" 11
        (Db.digest (Db.durable_db d'')).Spitz_ledger.Journal.size;
      Db.close_durable d'')

let test_durable_checkpoint () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      for i = 0 to 4 do
        ignore (Db.put db (Printf.sprintf "a%d" i) "x")
      done;
      Db.checkpoint d;
      Alcotest.(check int) "log empty after checkpoint" 0 (Db.wal_size d);
      for i = 0 to 4 do
        ignore (Db.put db (Printf.sprintf "b%d" i) "y")
      done;
      Alcotest.(check bool) "log grew again" true (Db.wal_size d > 0);
      let digest = Db.digest db in
      Db.close_durable d;
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check int) "snapshot + log replay" 10
        (Db.digest db').Spitz_ledger.Journal.size;
      Alcotest.(check bool) "digest identical" true
        (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
           (Db.digest db').Spitz_ledger.Journal.root);
      Alcotest.(check (option string)) "pre-checkpoint key" (Some "x") (Db.get db' "a3");
      Alcotest.(check (option string)) "post-checkpoint key" (Some "y") (Db.get db' "b3");
      Db.close_durable d')

let test_durable_large_values_and_batches () =
  with_dir (fun dir ->
      let big = String.init 50_000 (fun i -> Char.chr (i * 13 mod 256)) in
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      ignore (Db.put db "big" big);
      ignore (Db.put_batch db [ ("p", "1"); ("q", "2"); ("r", "3") ]);
      Db.close_durable d;
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check (option string)) "chunked value recovered" (Some big) (Db.get db' "big");
      Alcotest.(check (option string)) "batch member" (Some "2") (Db.get db' "q");
      Db.close_durable d')

let test_durable_fsync_policies () =
  List.iter
    (fun sync ->
       with_dir (fun dir ->
           let d = Db.open_durable ~sync dir in
           let db = Db.durable_db d in
           for i = 0 to 6 do
             ignore (Db.put db (Printf.sprintf "k%d" i) "v")
           done;
           Db.sync_durable d;
           Db.close_durable d;
           let d' = Db.open_durable dir in
           Alcotest.(check int) "all commits recovered" 7
             (Db.digest (Db.durable_db d')).Spitz_ledger.Journal.size;
           Db.close_durable d'))
    [ Wal.Always; Wal.Interval 3; Wal.Never;
      Wal.Group { max_batch = 4; max_delay_us = 200 } ]

(* SQL writes take the same commit path as KV writes: under [Always] the
   statement returns only once its log record is fsynced. *)
let test_durable_sql_acked_after_fsync () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      let env = Sql.env (Db.durable_db d) in
      ignore (Sql.exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
      ignore (Sql.exec env "INSERT INTO t (id, v) VALUES ('a', 1)");
      let st = Db.wal_stats d in
      Alcotest.(check int) "nothing left unflushed" 0 st.Wal.pending_bytes;
      Alcotest.(check bool) "fsynced before returning" true (st.Wal.fsyncs >= 1);
      Db.close_durable d)

(* --- kill-at-every-crash-point recovery --- *)

(* Each site maps to the number of commits that must survive when the crash
   hits while committing the (n+1)-th key: before the log record is written
   (or while it is half-written) the commit is lost; once the record is on
   disk the commit is durable. Under group commit the record is only
   *submitted* (framed in memory) inside the serial section —
   [commit.after_submit] dies with the record still unwritten and
   unacknowledged, so it must be absent after recovery; [commit.acked]
   dies after the durability wait returned, so it must always survive. *)
let commit_crash_sites =
  [ ("commit.before_wal", 5); ("wal.append.torn", 5); ("wal.append.before_sync", 6);
    ("commit.after_submit", 5); ("commit.acked", 6) ]

let crash_during_commit ~sync () =
  List.iter
    (fun (site, survive) ->
       with_dir (fun dir ->
           let d = Db.open_durable ~sync dir in
           let db = Db.durable_db d in
           for i = 0 to 4 do
             ignore (Db.put db (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
           done;
           Fault.arm site;
           (match Db.put db "k5" "v5" with
            | exception Fault.Crash name ->
              Alcotest.(check string) (site ^ " fired") site name
            | _ -> Alcotest.failf "%s did not fire" site);
           Fault.reset ();
           (* the crashed handle is abandoned, as a dead process would be *)
           let d' = Db.open_durable dir in
           let db' = Db.durable_db d' in
           Alcotest.(check int)
             (site ^ ": durable prefix")
             survive
             (Db.digest db').Spitz_ledger.Journal.size;
           for i = 0 to 4 do
             Alcotest.(check (option string))
               (Printf.sprintf "%s: k%d" site i)
               (Some (Printf.sprintf "v%d" i))
               (Db.get db' (Printf.sprintf "k%d" i))
           done;
           Alcotest.(check (option string))
             (site ^ ": crashed commit")
             (if survive = 6 then Some "v5" else None)
             (Db.get db' "k5");
           Alcotest.(check bool) (site ^ ": chain verifies") true (Db.audit db');
           (* the recovered database accepts new commits *)
           ignore (Db.put db' "post" "crash");
           Db.close_durable d'))
    commit_crash_sites

(* The same survivor matrix must hold under both ack-equals-durable
   policies: plain [Always] and lingering [Group] batches. *)
let test_crash_during_commit () = crash_during_commit ~sync:Wal.Always ()

let test_crash_during_commit_group () =
  crash_during_commit ~sync:(Wal.Group { max_batch = 4; max_delay_us = 200 }) ()

(* Every step of the non-blocking checkpoint protocol, in order: pin+rotate
   under the commit lock (begin, rotate.begin, rotate.after_create), the
   live-set mark outside it (after_mark), the snapshot write
   (save.before_rename, save_done), the directory
   fsync (after_rename), and segment retirement (before_retire, mid_retire).
   A crash at any of them must lose nothing: every commit was durable in
   some live segment or in the freshly renamed snapshot. *)
let checkpoint_crash_sites =
  [ "checkpoint.begin"; "rotate.begin"; "rotate.after_create"; "checkpoint.after_mark";
    "save.before_rename";
    "checkpoint.save_done"; "checkpoint.after_rename"; "checkpoint.before_retire";
    "checkpoint.mid_retire" ]

let crash_during_checkpoint ~sync () =
  List.iter
    (fun site ->
       with_dir (fun dir ->
           let d = Db.open_durable ~sync dir in
           let db = Db.durable_db d in
           for i = 0 to 4 do
             ignore (Db.put db (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
           done;
           let digest = Db.digest db in
           Fault.arm site;
           (match Db.checkpoint d with
            | exception Fault.Crash name ->
              Alcotest.(check string) (site ^ " fired") site name
            | () -> Alcotest.failf "%s did not fire" site);
           Fault.reset ();
           (* whatever step died, every commit was already durable *)
           let d' = Db.open_durable dir in
           let db' = Db.durable_db d' in
           Alcotest.(check int) (site ^ ": nothing lost") 5
             (Db.digest db').Spitz_ledger.Journal.size;
           Alcotest.(check bool) (site ^ ": digest identical") true
             (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
                (Db.digest db').Spitz_ledger.Journal.root);
           Alcotest.(check bool) (site ^ ": chain verifies") true (Db.audit db');
           (* a fresh checkpoint completes and the log drains *)
           Db.checkpoint d';
           Alcotest.(check int) (site ^ ": log drained") 0 (Db.wal_size d');
           ignore (Db.put db' "post" "checkpoint");
           Db.close_durable d';
           let d'' = Db.open_durable dir in
           Alcotest.(check int) (site ^ ": post-recovery commit durable") 6
             (Db.digest (Db.durable_db d'')).Spitz_ledger.Journal.size;
           Db.close_durable d''))
    checkpoint_crash_sites

let test_crash_during_checkpoint () = crash_during_checkpoint ~sync:Wal.Always ()

let test_crash_during_checkpoint_group () =
  crash_during_checkpoint ~sync:(Wal.Group { max_batch = 4; max_delay_us = 200 }) ()

(* The nastiest shapes the segmented protocol can leave on disk: several
   live segments all still carrying needed records (a checkpoint died
   mid-rotation), and a half-retired tail (a checkpoint died between
   segment deletions, after its snapshot was already live). *)
let crash_multi_segment ~sync () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync dir in
      let db = Db.durable_db d in
      for i = 0 to 2 do
        ignore (Db.put db (Printf.sprintf "a%d" i) "v")
      done;
      (* die mid-rotation: two live segments, the snapshot covers neither *)
      Fault.arm "rotate.after_create";
      (match Db.checkpoint d with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "rotate.after_create did not fire");
      Fault.reset ();
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      Alcotest.(check int) "all commits survive mid-rotation crash" 3
        (Db.digest db).Spitz_ledger.Journal.size;
      for i = 0 to 2 do
        ignore (Db.put db (Printf.sprintf "b%d" i) "v")
      done;
      Alcotest.(check bool) "multiple live segments" true
        (List.length (wal_segments (Filename.concat dir "wal")) >= 2);
      (* die mid-retirement: the snapshot is live, a suffix of the sealed
         segments remains — every record in it redundant *)
      Fault.arm "checkpoint.mid_retire";
      (match Db.checkpoint d with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "checkpoint.mid_retire did not fire");
      Fault.reset ();
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      Alcotest.(check int) "all commits survive half-retired tail" 6
        (Db.digest db).Spitz_ledger.Journal.size;
      Alcotest.(check bool) "chain verifies" true (Db.audit db);
      ignore (Db.put db "post" "v");
      Db.close_durable d;
      let d = Db.open_durable dir in
      Alcotest.(check int) "accepts commits after both crashes" 7
        (Db.digest (Db.durable_db d)).Spitz_ledger.Journal.size;
      Alcotest.(check bool) "final audit" true (Db.audit (Db.durable_db d));
      Db.close_durable d)

let test_crash_multi_segment () = crash_multi_segment ~sync:Wal.Always ()

let test_crash_multi_segment_group () =
  crash_multi_segment ~sync:(Wal.Group { max_batch = 4; max_delay_us = 200 }) ()

let test_durable_torn_log_file () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      let db = Db.durable_db d in
      for i = 0 to 2 do
        ignore (Db.put db (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
      done;
      Db.close_durable d;
      (* rip bytes off the log's tail: the last commit becomes torn *)
      let seg = last_wal_segment (Filename.concat dir "wal") in
      Fault.truncate_file seg (Fault.file_size seg - 5);
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check int) "torn commit dropped" 2
        (Db.digest db').Spitz_ledger.Journal.size;
      Alcotest.(check (option string)) "survivor" (Some "v1") (Db.get db' "k1");
      Alcotest.(check (option string)) "torn commit gone" None (Db.get db' "k2");
      Alcotest.(check bool) "chain verifies" true (Db.audit db');
      (* the log was repaired in place: appends splice onto the good prefix *)
      ignore (Db.put db' "k2" "replayed");
      Db.close_durable d';
      let d'' = Db.open_durable dir in
      Alcotest.(check (option string)) "replacement durable" (Some "replayed")
        (Db.get (Db.durable_db d'') "k2");
      Db.close_durable d'')

let test_durable_corrupt_log_record () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      let db = Db.durable_db d in
      for i = 0 to 2 do
        ignore (Db.put db (Printf.sprintf "k%d" i) (Printf.sprintf "v%d" i))
      done;
      Db.close_durable d;
      (* bit rot in the middle of the log: everything from the first bad CRC
         on is treated as torn — the durable prefix before it survives *)
      let seg = last_wal_segment (Filename.concat dir "wal") in
      Fault.flip_bit seg ~byte:(Fault.file_size seg / 2) ~bit:5;
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      let size = (Db.digest db').Spitz_ledger.Journal.size in
      Alcotest.(check bool) "a strict prefix survives" true (size >= 1 && size < 3);
      Alcotest.(check bool) "chain verifies" true (Db.audit db');
      Alcotest.(check (option string)) "first commit always durable" (Some "v0")
        (Db.get db' "k0");
      Db.close_durable d')

(* --- concurrent committers on the durable path --- *)

let run_concurrent_commits db ~ndomains ~per =
  let key d i = Printf.sprintf "c%d-%03d" d i in
  let domains =
    List.init ndomains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Db.put db (key d i) (Printf.sprintf "v%d-%d" d i))
            done))
  in
  List.iter Domain.join domains;
  key

let test_durable_concurrent_committers () =
  List.iter
    (fun sync ->
       with_dir (fun dir ->
           let ndomains = 4 and per = 10 in
           let d = Db.open_durable ~sync dir in
           let db = Db.durable_db d in
           let key = run_concurrent_commits db ~ndomains ~per in
           let digest = Db.digest db in
           Alcotest.(check int) "every commit is a block" (ndomains * per)
             digest.Spitz_ledger.Journal.size;
           Alcotest.(check bool) "live audit" true (Db.audit db);
           Db.close_durable d;
           (* every acknowledged commit must recover, bit-identically *)
           let d' = Db.open_durable dir in
           let db' = Db.durable_db d' in
           Alcotest.(check bool) "digest identical after recovery" true
             (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
                (Db.digest db').Spitz_ledger.Journal.root);
           for dd = 0 to ndomains - 1 do
             for i = 0 to per - 1 do
               Alcotest.(check (option string))
                 (Printf.sprintf "key %s" (key dd i))
                 (Some (Printf.sprintf "v%d-%d" dd i))
                 (Db.get db' (key dd i))
             done
           done;
           Alcotest.(check bool) "recovered audit" true (Db.audit db');
           Db.close_durable d'))
    [ Wal.Always; Wal.Group { max_batch = 4; max_delay_us = 200 } ]

let test_durable_concurrent_torn_tail () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:(Wal.Group { max_batch = 4; max_delay_us = 200 }) dir in
      let db = Db.durable_db d in
      let (_ : int -> int -> string) = run_concurrent_commits db ~ndomains:4 ~per:5 in
      Db.close_durable d;
      (* rip the tail off the log a concurrent run produced: the torn last
         record is dropped, everything before it recovers and audits *)
      let seg = last_wal_segment (Filename.concat dir "wal") in
      Fault.truncate_file seg (Fault.file_size seg - 5);
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check int) "exactly the torn commit lost" 19
        (Db.digest db').Spitz_ledger.Journal.size;
      Alcotest.(check bool) "chain verifies" true (Db.audit db');
      ignore (Db.put db' "post" "torn");
      Db.close_durable d';
      let d'' = Db.open_durable dir in
      Alcotest.(check int) "accepts commits after repair" 20
        (Db.digest (Db.durable_db d'')).Spitz_ledger.Journal.size;
      Db.close_durable d'')

(* --- segmented log: rotation & retirement --- *)

let test_wal_rotate_retire () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:Wal.Always path in
      Wal.append w "a";
      Wal.append w "b";
      let sealed = Wal.rotate w in
      Alcotest.(check int) "one sealed segment" 1 (List.length sealed);
      Wal.append w "c";
      ignore (Wal.rotate w);
      Wal.append w "d";
      let s = Wal.stats w in
      Alcotest.(check int) "rotations counted" 2 s.Wal.rotations;
      Alcotest.(check int) "three live segments" 3 s.Wal.segments;
      (* replay stitches the segments in order *)
      let r = Wal.replay path in
      Alcotest.(check (list string)) "records across segments" [ "a"; "b"; "c"; "d" ]
        r.Wal.records;
      Alcotest.(check int) "live segments reported" 3 r.Wal.live_segments;
      (* reopen of a multi-segment log appends to the last segment *)
      Wal.close w;
      let w = Wal.open_log ~sync:Wal.Always path in
      Alcotest.(check int) "segments survive reopen" 3 (Wal.stats w).Wal.segments;
      Wal.append w "e";
      Alcotest.(check (list string)) "append goes to the tail" [ "a"; "b"; "c"; "d"; "e" ]
        (Wal.replay path).Wal.records;
      (* retirement deletes exactly the sealed segments, oldest first *)
      let retired = Wal.retire w in
      Alcotest.(check int) "two segments retired" 2 retired;
      Alcotest.(check int) "only the active segment left" 1
        (List.length (wal_segments path));
      Alcotest.(check (list string)) "active records survive retirement" [ "d"; "e" ]
        (Wal.replay path).Wal.records;
      Wal.close w)

let test_wal_sealed_corruption_raises () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:Wal.Always path in
      Wal.append w "first-segment-record";
      ignore (Wal.rotate w);
      Wal.append w "second-segment-record";
      Wal.close w;
      (* damage in a *sealed* segment is bit rot, not a torn tail: replay
         must refuse, never silently drop the records that chained after *)
      let seg1 = List.hd (wal_segments path) in
      Fault.truncate_file seg1 (Fault.file_size seg1 - 3);
      (match Wal.replay path with
       | exception Wal.Corrupt _ -> ()
       | r ->
         Alcotest.failf "sealed damage silently accepted (%d records)"
           (List.length r.Wal.records)))

(* The log is a directory of segments; a regular file at its path is not a
   log this code wrote, and both replay and open refuse it by name. *)
let test_wal_regular_file_rejected () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let oc = open_out_bin path in
      output_string oc "not a segment directory";
      close_out oc;
      let names_path msg =
        let n = String.length path in
        let rec at i = i + n <= String.length msg && (String.sub msg i n = path || at (i + 1)) in
        at 0
      in
      let rejected f =
        match f () with
        | exception Invalid_argument msg ->
          Alcotest.(check bool) "error names the path" true (names_path msg)
        | _ -> Alcotest.fail "a regular file was accepted as a log"
      in
      rejected (fun () -> ignore (Wal.replay path));
      rejected (fun () -> Wal.close (Wal.open_log path));
      Alcotest.(check bool) "file left untouched" false (Sys.is_directory path))

(* --- satellite bugfix: close drains the pending batch and surfaces errors --- *)

let test_wal_close_drains_pending () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:(Wal.Group { max_batch = 64; max_delay_us = 50_000 }) path in
      (* submitted, never waited on: the batch sits in memory *)
      ignore (Wal.submit w "p0");
      ignore (Wal.submit w "p1");
      Alcotest.(check int) "batch pending before close" 0 (Wal.stats w).Wal.disk_bytes;
      Wal.close w;
      Alcotest.(check (list string)) "close drained the batch" [ "p0"; "p1" ]
        (Wal.replay path).Wal.records)

let test_wal_close_surfaces_errors () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:Wal.Always path in
      ignore (Wal.submit w "p0");
      (* the close-time drain dies before its fsync: the failure must reach
         the caller — the old close swallowed it and looked clean *)
      Fault.arm "wal.append.before_sync";
      (match Wal.close w with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "close swallowed the drain failure");
      Fault.reset ();
      (* the descriptor is released and the handle is closed regardless *)
      (match Wal.submit w "p1" with
       | exception Invalid_argument _ -> ()
       | _ -> Alcotest.fail "handle still open after failed close");
      (* the record reached the file before the fault (only the fsync was
         lost), so replay may keep it; it must never splice garbage *)
      Alcotest.(check (list string)) "written batch replays" [ "p0" ]
        (Wal.replay path).Wal.records)

(* --- fail-stop on an I/O error --- *)

(* A failed write stops the log: every waiter raises within a timeout —
   none blocks on a flush that will never end — and so does every later
   submit, sync and close. What reached the disk replays as a clean
   prefix. *)
let test_wal_io_error_fails_every_waiter () =
  with_dir (fun dir ->
      let path = Filename.concat dir "log" in
      let w = Wal.open_log ~sync:(Wal.Group { max_batch = 8; max_delay_us = 200 }) path in
      Wal.append w "before";
      Fault.arm ~after:2 "wal.flush.io";
      let n = 4 in
      let finished = Atomic.make 0 and failed = Atomic.make 0 in
      let appenders =
        List.init n (fun d ->
            Domain.spawn (fun () ->
                (try
                   for i = 0 to 999 do
                     Wal.append w (Printf.sprintf "d%d-%03d" d i)
                   done
                 with Wal.Failed _ -> Atomic.incr failed);
                Atomic.incr finished))
      in
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get finished < n && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      if Atomic.get finished < n then Alcotest.fail "a waiter still blocks after the log failed";
      List.iter Domain.join appenders;
      Alcotest.(check int) "every appender saw the failure" n (Atomic.get failed);
      (match Wal.submit w "after" with
       | exception Wal.Failed msg ->
         Alcotest.(check bool) "the error is named" true
           (String.length msg > 0)
       | _ -> Alcotest.fail "a submit after the failure was accepted");
      (match Wal.sync w with
       | exception Wal.Failed _ -> ()
       | () -> Alcotest.fail "a sync after the failure looked clean");
      (try Wal.close w with Wal.Failed _ -> ());
      match (Wal.replay path).Wal.records with
      | "before" :: _ -> ()
      | _ -> Alcotest.fail "the records written before the failure are lost")

(* Through the server: the commit whose record failed and every later one
   answer [Error], and no block follows the failure. *)
let test_wal_io_error_fails_apply () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      Fun.protect ~finally:(fun () -> try Db.close_durable d with _ -> ()) @@ fun () ->
      let db = Db.durable_db d in
      let server = Spitz_server.Server.start db in
      Fun.protect ~finally:(fun () -> Spitz_server.Server.stop server) @@ fun () ->
      let session = Spitz_server.Session.connect ~port:(Spitz_server.Server.port server) () in
      Fun.protect ~finally:(fun () -> Spitz_server.Session.close session) @@ fun () ->
      ignore (Spitz_server.Session.put session "a" "1");
      Fault.arm "wal.flush.io";
      let refused what =
        match Spitz_server.Session.put session what "2" with
        | exception Spitz_server.Session.Server_error _ -> ()
        | _ -> Alcotest.fail (what ^ " was acknowledged after the log failed")
      in
      refused "b";
      let height = Db.L.height (Db.ledger db) in
      refused "c";
      Alcotest.(check int) "no block after the failure" height (Db.L.height (Db.ledger db));
      match Db.put db "d" "3" with
      | exception Wal.Failed _ -> ()
      | _ -> Alcotest.fail "an in-process commit was accepted after the log failed")

(* A checkpoint whose directory fsync fails counts the failure and leaves
   the log running; the next checkpoint succeeds. *)
let test_checkpoint_counts_dir_fsync_failure () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Never dir in
      let db = Db.durable_db d in
      for i = 0 to 9 do
        ignore (Db.put db (Printf.sprintf "k%d" i) "v")
      done;
      (* the rotation's directory fsync passes, the renamed snapshot's fails *)
      Fault.arm ~after:1 "wal.fsync_dir";
      (match Db.checkpoint d with
       | exception Unix.Unix_error (Unix.EIO, _, _) -> ()
       | () -> Alcotest.fail "a failed directory fsync was swallowed");
      Fault.reset ();
      let st = Db.checkpoint_stats d in
      Alcotest.(check int) "failure counted" 1 st.Db.failures;
      Alcotest.(check bool) "error kept" true (st.Db.last_error <> None);
      ignore (Db.put db "after" "v");
      Db.checkpoint d;
      let digest = Db.digest db in
      Db.close_durable d;
      let d' = Db.open_durable dir in
      Alcotest.(check bool) "reopens" true (Db.digest (Db.durable_db d') = digest);
      Db.close_durable d')

(* --- satellite bugfix: orphaned checkpoint temps + strict (repair:false) opens --- *)

let test_orphan_tmp_removed_strict_open () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      let db = Db.durable_db d in
      for i = 0 to 2 do
        ignore (Db.put db (Printf.sprintf "k%d" i) "v")
      done;
      let digest = Db.digest db in
      Fault.arm "save.before_rename";
      (match Db.checkpoint d with
       | exception Fault.Crash _ -> ()
       | () -> Alcotest.fail "save.before_rename did not fire");
      Fault.reset ();
      let tmp = Filename.concat dir "snapshot.tmp" in
      Alcotest.(check bool) "crash left the temp file" true (Sys.file_exists tmp);
      (* a strict open must also clean the checkpoint debris *)
      let d' = Db.open_durable ~repair:false dir in
      Alcotest.(check bool) "orphan temp removed by strict open" false (Sys.file_exists tmp);
      let db' = Db.durable_db d' in
      Alcotest.(check bool) "digest identical" true
        (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
           (Db.digest db').Spitz_ledger.Journal.root);
      Alcotest.(check bool) "audit" true (Db.audit db');
      Db.close_durable d')

let test_strict_open_rejects_torn_tail () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      let db = Db.durable_db d in
      for i = 0 to 2 do
        ignore (Db.put db (Printf.sprintf "k%d" i) "v")
      done;
      Db.close_durable d;
      let seg = last_wal_segment (Filename.concat dir "wal") in
      Fault.truncate_file seg (Fault.file_size seg - 5);
      let torn_size = Fault.file_size seg in
      (* strict mode surfaces the tear instead of silently repairing it *)
      (match Db.open_durable ~repair:false dir with
       | exception Db.Corrupt _ -> ()
       | _ -> Alcotest.fail "strict open accepted a torn tail");
      Alcotest.(check int) "strict open left the log untouched" torn_size
        (Fault.file_size seg);
      (* the default open repairs and recovers the prefix *)
      let d' = Db.open_durable dir in
      Alcotest.(check int) "repairing open recovers the prefix" 2
        (Db.digest (Db.durable_db d')).Spitz_ledger.Journal.size;
      Alcotest.(check bool) "audit" true (Db.audit (Db.durable_db d'));
      Db.close_durable d')

(* --- multi-segment corruption sweeps --- *)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else begin
    let ic = open_in_bin src in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc data;
    close_out oc
  end

(* Frame end offsets of one segment file — truncating exactly there leaves
   whole records, the damage the CRC cannot see and only the Db-level
   height-contiguity check can. *)
let frame_ends path =
  let ic = open_in_bin path in
  let total = in_channel_length ic in
  let ends = ref [] in
  let off = ref 0 in
  (try
     while !off + 8 <= total do
       let head = really_input_string ic 8 in
       let len =
         Char.code head.[0] lor (Char.code head.[1] lsl 8)
         lor (Char.code head.[2] lsl 16)
         lor (Char.code head.[3] lsl 24)
       in
       seek_in ic (!off + 8 + len);
       off := !off + 8 + len;
       ends := !off :: !ends
     done
   with _ -> ());
  close_in ic;
  List.rev !ends

(* A database whose log spans two live segments that *both* carry needed
   records (no snapshot covers either): three commits, a checkpoint killed
   mid-rotation, three more commits into the fresh segment. *)
let build_two_segment_db base =
  let d = Db.open_durable ~sync:Wal.Always base in
  let db = Db.durable_db d in
  for i = 0 to 2 do
    ignore (Db.put db (Printf.sprintf "a%d" i) "v")
  done;
  Fault.arm "rotate.after_create";
  (match Db.checkpoint d with
   | exception Fault.Crash _ -> ()
   | () -> Alcotest.fail "rotate.after_create did not fire");
  Fault.reset ();
  let d = Db.open_durable base in
  let db = Db.durable_db d in
  for i = 0 to 2 do
    ignore (Db.put db (Printf.sprintf "b%d" i) "v")
  done;
  Db.close_durable d

let test_multi_segment_corruption_sweep () =
  with_dir (fun dir ->
      let base = Filename.concat dir "base" in
      build_two_segment_db base;
      let segs = wal_segments (Filename.concat base "wal") in
      Alcotest.(check int) "two live segments" 2 (List.length segs);
      let seg_name i = Filename.basename (List.nth segs i) in
      let victim = Filename.concat dir "victim" in
      let with_victim corrupt check =
        if Sys.file_exists victim then rm_rf victim;
        copy_tree base victim;
        corrupt (Filename.concat (Filename.concat victim "wal") (seg_name 0))
          (Filename.concat (Filename.concat victim "wal") (seg_name 1));
        check (fun () -> Db.open_durable victim)
      in
      let must_reject what open_db =
        match open_db () with
        | exception Db.Corrupt _ -> ()
        | exception e -> Alcotest.failf "%s leaked %s" what (Printexc.to_string e)
        | d ->
          Db.close_durable d;
          Alcotest.failf "%s silently accepted" what
      in
      let must_recover what ~min_height open_db =
        match open_db () with
        | exception Db.Corrupt _ -> ()
        | exception e -> Alcotest.failf "%s leaked %s" what (Printexc.to_string e)
        | d ->
          let db = Db.durable_db d in
          let h = (Db.digest db).Spitz_ledger.Journal.size in
          if h < min_height || h > 6 then
            Alcotest.failf "%s recovered to impossible height %d" what h;
          if not (Db.audit db) then Alcotest.failf "%s recovered but fails audit" what;
          Db.close_durable d
      in
      let size1 = Fault.file_size (List.nth segs 0) in
      let size2 = Fault.file_size (List.nth segs 1) in
      (* byte-level truncation of the sealed segment: mid-frame cuts break
         the CRC, record-boundary cuts can only be caught by the chain —
         every one must reject, never silently truncate history *)
      let step1 = max 1 (size1 / 40) in
      let cut = ref 0 in
      while !cut < size1 do
        let c = !cut in
        with_victim
          (fun s1 _ -> Fault.truncate_file s1 c)
          (must_reject (Printf.sprintf "sealed segment cut at %d" c));
        cut := !cut + step1
      done;
      List.iter
        (fun e ->
           if e < size1 then
             with_victim
               (fun s1 _ -> Fault.truncate_file s1 e)
               (must_reject (Printf.sprintf "sealed segment cut at boundary %d" e)))
        (frame_ends (List.nth segs 0));
      (* bit flips in the sealed segment: always a reject *)
      let off = ref 0 in
      while !off < size1 do
        let o = !off in
        with_victim
          (fun s1 _ -> Fault.flip_bit s1 ~byte:o ~bit:(o mod 8))
          (must_reject (Printf.sprintf "sealed segment flip at %d" o));
        off := !off + step1
      done;
      (* the *final* segment keeps torn-tail semantics: truncation or rot
         loses a suffix of its records, never the sealed prefix, and the
         recovered database always audits *)
      let step2 = max 1 (size2 / 40) in
      cut := 0;
      while !cut < size2 do
        let c = !cut in
        with_victim
          (fun _ s2 -> Fault.truncate_file s2 c)
          (must_recover (Printf.sprintf "final segment cut at %d" c) ~min_height:3);
        cut := !cut + step2
      done;
      off := 0;
      while !off < size2 do
        let o = !off in
        with_victim
          (fun _ s2 -> Fault.flip_bit s2 ~byte:o ~bit:(o mod 8))
          (must_recover (Printf.sprintf "final segment flip at %d" o) ~min_height:3);
        off := !off + step2
      done)

(* --- automatic checkpoint policies --- *)

let wait_until ?(timeout_s = 30.) pred msg =
  let t0 = Unix.gettimeofday () in
  while (not (pred ())) && Unix.gettimeofday () -. t0 < timeout_s do
    Unix.sleepf 0.005
  done;
  if not (pred ()) then Alcotest.fail msg

let test_auto_checkpoint_records () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:(Wal.Group { max_batch = 8; max_delay_us = 100 }) dir in
      let db = Db.durable_db d in
      Db.set_checkpoint_policy d (Db.Every_n_records 4);
      for i = 0 to 11 do
        ignore (Db.put db (Printf.sprintf "r%02d" i) "v")
      done;
      wait_until
        (fun () -> (Db.checkpoint_stats d).Db.auto_checkpoints >= 1)
        "background checkpointer never fired on record threshold";
      wait_until
        (fun () -> (Db.checkpoint_stats d).Db.retired_segments >= 1)
        "background checkpoint retired no segment";
      Alcotest.(check int) "no failures" 0 (Db.checkpoint_stats d).Db.failures;
      Db.set_checkpoint_policy d Db.Manual;
      let digest = Db.digest db in
      Db.close_durable d;
      let d' = Db.open_durable dir in
      Alcotest.(check int) "all commits recovered" 12
        (Db.digest (Db.durable_db d')).Spitz_ledger.Journal.size;
      Alcotest.(check bool) "digest identical" true
        (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
           (Db.digest (Db.durable_db d')).Spitz_ledger.Journal.root);
      Alcotest.(check bool) "audit" true (Db.audit (Db.durable_db d'));
      Db.close_durable d')

let test_auto_checkpoint_retries_after_failure () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Always dir in
      let db = Db.durable_db d in
      for i = 0 to 4 do
        ignore (Db.put db (Printf.sprintf "f%d" i) "v")
      done;
      (* the first background attempt dies mid-save; the next must succeed *)
      Fault.arm "save.before_rename";
      Db.set_checkpoint_policy d (Db.Every_n_records 1);
      wait_until
        (fun () -> (Db.checkpoint_stats d).Db.failures >= 1)
        "injected checkpoint failure never counted";
      wait_until
        (fun () -> (Db.checkpoint_stats d).Db.checkpoints >= 1)
        "checkpointer never recovered from the failure";
      Fault.reset ();
      let stats = Db.checkpoint_stats d in
      Alcotest.(check bool) "failure recorded" true (stats.Db.last_error <> None);
      Db.set_checkpoint_policy d Db.Manual;
      let digest = Db.digest db in
      Db.close_durable d;
      let d' = Db.open_durable dir in
      Alcotest.(check bool) "digest identical after failure + retry" true
        (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
           (Db.digest (Db.durable_db d')).Spitz_ledger.Journal.root);
      Alcotest.(check bool) "audit" true (Db.audit (Db.durable_db d'));
      Db.close_durable d')

let test_durable_concurrent_checkpoint () =
  with_dir (fun dir ->
      (* checkpoints interleaved with concurrent committers: the commit lock
         makes each snapshot a block boundary, so nothing is ever lost *)
      let d = Db.open_durable ~sync:Wal.Always dir in
      let db = Db.durable_db d in
      let committers =
        List.init 3 (fun dd ->
            Domain.spawn (fun () ->
                for i = 0 to 9 do
                  ignore (Db.put db (Printf.sprintf "p%d-%d" dd i) "v")
                done))
      in
      for _ = 1 to 5 do
        Db.checkpoint d
      done;
      List.iter Domain.join committers;
      let digest = Db.digest db in
      Alcotest.(check int) "all commits landed" 30 digest.Spitz_ledger.Journal.size;
      Db.close_durable d;
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check bool) "digest identical" true
        (Spitz_crypto.Hash.equal digest.Spitz_ledger.Journal.root
           (Db.digest db').Spitz_ledger.Journal.root);
      Alcotest.(check bool) "audit" true (Db.audit db');
      Db.close_durable d')

(* --- one index version per block ---

   A commit applies its writes to the index as one batch, so the store (and
   the log) holds only nodes some block's index root reaches: every stored
   object is a block body, a value a block names, or a node of a block's
   index instance. *)

let test_batched_commits_store_no_garbage () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Never dir in
      let db = Db.durable_db d in
      let key i = Printf.sprintf "user%05d" i in
      for b = 0 to 3 do
        ignore
          (Db.put_batch db (List.init 512 (fun i -> let k = key ((b * 512) + i) in (k, "v0-" ^ k))))
      done;
      let rng = Random.State.make [| 17 |] in
      for u = 1 to 24 do
        ignore
          (Db.put_batch db
             (List.init 16 (fun _ ->
                  let k = key (Random.State.int rng 2048) in
                  (k, Printf.sprintf "v%d-%s" u k))))
      done;
      let digest = Db.digest db in
      let store = Db.store db and ledger = Db.ledger db in
      let reachable = Spitz_crypto.Hash.Table.create 4096 in
      let visit h = Spitz_crypto.Hash.Table.replace reachable h () in
      List.iteri
        (fun height body ->
           visit body;
           List.iter
             (fun (e : Spitz_ledger.Block.entry) -> visit e.value_hash)
             (Spitz_ledger.Block.decode (Object_store.get_exn store body)).entries;
           Db.L.mark_instance ledger
             (Spitz_ledger.Journal.header (Db.L.journal ledger) height).index_root visit)
        (Db.L.body_hashes ledger);
      Alcotest.(check int) "unreachable objects" 0
        (Object_store.fold store
           (fun h _ n -> if Spitz_crypto.Hash.Table.mem reachable h then n else n + 1)
           0);
      Db.close_durable d;
      let d' = Db.open_durable dir in
      Alcotest.(check bool) "reopen gives the same digest" true
        (Db.digest (Db.durable_db d') = digest);
      Db.close_durable d')

(* Does [msg] contain [part]? *)
let mentions msg part =
  let n = String.length part in
  let rec at i = i + n <= String.length msg && (String.sub msg i n = part || at (i + 1)) in
  at 0

let file_sha path =
  Spitz_crypto.Hash.to_hex (Spitz_crypto.Hash.of_string (In_channel.with_open_bin path In_channel.input_all))

(* A durable directory written by an earlier release, whose log records
   were the store objects each commit created (here by the per-key
   path-copy index: 64 keys in 4 commits of 16, no checkpoint). Its
   headerless segment is refused, in both repair modes, with an error that
   names the segment and the way out, and the directory is left as it
   was. *)
(* Fixtures live in [test/fixtures]: [dune runtest] runs in the test
   directory, a [dune exec test/test_main.exe] from the root of the tree
   does not. *)
let fixture name =
  let here = Filename.concat "fixtures" name in
  if Sys.file_exists here then here else Filename.concat "test" here

let per_key_wal_fixture = fixture "per_key_wal"

let test_physical_segment_refused () =
  with_dir (fun dir ->
      copy_tree per_key_wal_fixture dir;
      let seg = last_wal_segment (Filename.concat dir "wal") in
      let before = file_sha seg in
      List.iter
        (fun repair ->
           match Db.open_durable ~repair dir with
           | exception Db.Corrupt msg ->
             List.iter
               (fun part ->
                  Alcotest.(check bool) (Printf.sprintf "%S names %S" msg part) true (mentions msg part))
               [ "wal.000001"; "version-2 header"; "earlier release"; "checkpoint it" ]
           | d ->
             Db.close_durable d;
             Alcotest.fail "a physical-record segment was opened")
        [ true; false ];
      Alcotest.(check string) "segment untouched" before (file_sha seg))

(* The way out works: a directory the earlier release wrote and then
   checkpointed (snapshot plus an empty, headerless active segment; its
   flag byte set by the inverted index that release kept; puts, a delete
   with a statement, a chunked value)
   opens to the digest it had, and takes and replays new commits. *)
let checkpointed_fixture = fixture "checkpointed_physical_wal"

let checkpointed_root = "31649c73babb5e44b138dd5aaad9779e4d7656b324ff97de9f2cd0e7e203da92"

let checkpointed_big = String.init 20_000 (fun i -> Char.chr (((i * 7) + (i / 251)) land 255))

let test_checkpointed_physical_wal_opens () =
  with_dir (fun dir ->
      copy_tree checkpointed_fixture dir;
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      let digest = Db.digest db in
      Alcotest.(check int) "blocks" 6 digest.Spitz_ledger.Journal.size;
      Alcotest.(check string) "digest" checkpointed_root
        (Spitz_crypto.Hash.to_hex digest.Spitz_ledger.Journal.root);
      Alcotest.(check bool) "audit" true (Db.audit db);
      Alcotest.(check int) "nothing to re-run" 0 (Db.uncheckpointed_blocks d);
      let expect i =
        match i with
        | 0 -> Some "rewritten"
        | 5 -> None
        | i -> Some (Printf.sprintf "value-%03d-b%d" i (i / 16))
      in
      let check_reads digest =
        for i = 0 to 63 do
          let key = Printf.sprintf "ckpt-%03d" i in
          let value, proof = Db.get_verified db key in
          Alcotest.(check (option string)) key (expect i) value;
          Alcotest.(check (option string)) (key ^ " cell") (expect i) (Db.get db key);
          Alcotest.(check bool) (key ^ " verifies") true
            (Db.verify_read ~digest ~key ~value (Option.get proof))
        done;
        Alcotest.(check (option string)) "chunked value" (Some checkpointed_big) (Db.get db "ckpt-big")
      in
      check_reads digest;
      Alcotest.(check (list (pair int string))) "history" [ (0, "value-000-b0"); (4, "rewritten") ]
        (Db.history db "ckpt-000");
      ignore (Db.put_batch db [ ("ckpt-new", "fresh"); ("ckpt-005", "back") ]);
      let digest' = Db.digest db in
      Alcotest.(check int) "one block to re-run" 1 (Db.uncheckpointed_blocks d);
      Db.close_durable d;
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check bool) "reopen re-runs the new block" true (Db.digest db' = digest');
      Alcotest.(check (option string)) "new key" (Some "fresh") (Db.get db' "ckpt-new");
      Alcotest.(check (list (pair int string))) "revived key history"
        [ (0, "value-005-b0"); (6, "back") ]
        (Db.history db' "ckpt-005");
      Db.close_durable d')

(* A directory an earlier release wrote with its inverted value index on,
   so the flag byte of [meta] and of the snapshot header is 1: KV puts, a
   delete and a table with an INDEXED column, a checkpoint, then four more
   commits that only the log holds. It opens to the digest and answers that
   release recorded, a lookup by value now one column scan, and its next
   checkpoint writes the flag byte 0. *)
let inverted_flag_fixture = fixture "inverted_flag"

let inverted_flag_root = "a107fd3ad088865a3ef5bd1658908a7efd67ffef1e767eb802f4efe7111da631"

(* The flag byte of a snapshot: the header's byte after the column id. *)
let snapshot_flag path =
  In_channel.with_open_bin path (fun ic ->
      ignore (really_input_string ic (String.length "SPITZDB1"));
      let r = Wire.reader (really_input_string ic (input_binary_int ic)) in
      ignore (Wire.read_string r);
      Wire.read_byte r)

let check_inverted_flag_answers db =
  let digest = Db.digest db in
  Alcotest.(check int) "blocks" 11 digest.Spitz_ledger.Journal.size;
  Alcotest.(check string) "digest" inverted_flag_root
    (Spitz_crypto.Hash.to_hex digest.Spitz_ledger.Journal.root);
  Alcotest.(check bool) "audit" true (Db.audit db);
  List.iter
    (fun (key, expected) -> Alcotest.(check (list (pair int string))) key expected (Db.history db key))
    [ ("a", [ (0, "1"); (1, "10") ]);
      ("b", [ (0, "2") ]);
      ("c", [ (0, "3"); (9, "30") ]);
      ("people.city\x1fp2", [ (5, "\"berlin\""); (7, "\"amsterdam\"") ]);
      ("people.city\x1fp3", [ (6, "\"amsterdam\"") ]) ];
  let people = Sql.table (Sql.env_of_db db) "people" in
  List.iter
    (fun (col, v, expected) ->
       Alcotest.(check (list string)) (col ^ " = " ^ Json.to_string v) expected
         (Schema.find_by_value people ~col v))
    [ ("city", Json.Str "amsterdam", [ "p1"; "p2" ]);
      ("city", Json.Str "berlin", []);
      ("city", Json.Str "paris", [ "p4" ]);
      ("age", Json.Num 40., [ "p2" ]);
      ("age", Json.Num 50., []) ]

let test_inverted_flag_opens () =
  with_dir (fun dir ->
      copy_tree inverted_flag_fixture dir;
      let snapshot = Filename.concat dir "snapshot" in
      Alcotest.(check char) "the fixture's flag" '\001' (snapshot_flag snapshot);
      let d = Db.open_durable dir in
      check_inverted_flag_answers (Db.durable_db d);
      Alcotest.(check int) "blocks the log holds" 4 (Db.uncheckpointed_blocks d);
      Db.checkpoint d;
      Db.close_durable d;
      Alcotest.(check char) "the checkpoint's flag" '\000' (snapshot_flag snapshot);
      let d = Db.open_durable dir in
      check_inverted_flag_answers (Db.durable_db d);
      Db.close_durable d)

(* Recovery reads each replayed value by its content address and walks the
   block's index instance only when no raw object is stored there. The
   script covers every shape that splits the two: small values, values over
   the chunk size (stored as a descriptor, so no raw object under their
   hash), a small value that begins with the descriptor magic and then names
   a stored object (read as a descriptor it would come back as that
   object), deletes, and schema keys that name their own column. *)
let recovery_big seed = String.init 50_000 (fun i -> Char.chr (((i * seed) + (i / 997)) land 255))

let recovery_lookalike = "SPITZBLOB1" ^ Spitz_crypto.Hash.to_raw (Spitz_crypto.Hash.of_string "v0")

let recovery_keys =
  [ "k00"; "k01"; "k02"; "k03"; "k04"; "big"; "fake"; "t.c\x1fa"; "t.c\x1fb"; "absent" ]

let recovery_script db =
  ignore (Db.put_batch db (List.init 5 (fun i -> (Printf.sprintf "k%02d" i, Printf.sprintf "v%d" i))));
  ignore (Db.put db "big" (recovery_big 7));
  ignore (Db.put db "fake" recovery_lookalike);
  ignore (Db.put_batch db [ ("t.c\x1fa", "v1"); ("t.c\x1fb", "v2"); ("k01", "v1-again") ]);
  ignore (Db.commit db Spitz_ledger.Ledger.[ Delete "k02"; Delete "t.c\x1fb" ]);
  ignore (Db.put_batch db [ ("k02", "back"); ("k03", "v0"); ("k04", "v4") ]);
  ignore (Db.put_batch db [ ("k00", "last"); ("big", recovery_big 11) ])

(* Every read surface, rendered so two databases compare with one check. *)
let recovery_view db =
  let opt = function None -> "-" | Some v -> Printf.sprintf "%S" v in
  let n = (Db.digest db).Spitz_ledger.Journal.size in
  List.concat_map
    (fun key ->
       (key ^ " get " ^ opt (Db.get db key))
       :: (key ^ " history "
           ^ String.concat "," (List.map (fun (ts, v) -> Printf.sprintf "%d:%S" ts v) (Db.history db key)))
       :: List.init (n + 1) (fun h -> Printf.sprintf "%s @%d %s" key h (opt (Db.get_at db ~height:h key))))
    recovery_keys
  @ List.map (fun (k, v) -> Printf.sprintf "range %S=%S" k v) (Db.range db ~lo:"" ~hi:"\xff")
  @ [
    Printf.sprintf "cells %d" (Db.cell_count db);
    "digest " ^ Spitz_crypto.Hash.to_hex (Db.digest db).Spitz_ledger.Journal.root;
  ]

(* SHA-256 of the snapshot a checkpoint writes after the script: every
   body and value and the head's index instance, 30 object records, each
   count field 1. Recovery re-runs every logged batch through [Db.commit],
   so the reopened database stores exactly what the live one did, and a
   checkpoint of either writes the same bytes. *)
let recovery_snapshot_sha = "075851d9560bd9b18d0c5d891324dbb02efd29b9e378b35e8d4481e0aabe14c1"

(* SHA-256 of the log segment the same script leaves behind (100,497 bytes):
   one logical record per commit, so a change to how a commit is hashed,
   encoded or framed shows here. *)
let recovery_wal_sha = "1556200377d140db61a86aea2a6376d9c7087399afb18b147370a55e4764994e"

let test_recovery_reads_by_content_address () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      recovery_script db;
      let before = recovery_view db in
      Alcotest.(check (option string)) "lookalike stored as itself" (Some recovery_lookalike)
        (Db.get db "fake");
      Db.close_durable d;
      Alcotest.(check string) "wal bytes" recovery_wal_sha
        (file_sha (Filename.concat dir "wal/wal.000001"));
      let d' = Db.open_durable dir in
      Alcotest.(check (list string)) "reopened" before (recovery_view (Db.durable_db d'));
      Db.checkpoint d';
      Alcotest.(check string) "snapshot bytes" recovery_snapshot_sha
        (file_sha (Filename.concat dir "snapshot"));
      Db.close_durable d';
      (* the checkpoint kept only the newest index instance: the reopen
         reaches the older blocks' values by address, and the first version
         of "big" — chunked, its instance gone — only through the blob
         descriptor the checkpoint's mark kept live *)
      let d'' = Db.open_durable dir in
      Alcotest.(check (list string)) "checkpointed + reopened" before
        (recovery_view (Db.durable_db d''));
      Db.close_durable d'')

(* A reopen indexes the restored cells and blocks without putting their
   objects again, so a checkpoint-and-reopen cycle with no commits in
   between leaves every counter where it was: [logical_bytes] does not
   climb with restarts. *)
let test_reopen_cycles_keep_counters () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      recovery_script db;
      let before = recovery_view db in
      Db.checkpoint d;
      Db.close_durable d;
      let cycle () =
        let d = Db.open_durable dir in
        let db = Db.durable_db d in
        let store = Db.store db in
        let counts =
          ( (Object_store.stats store).Object_store.logical_bytes,
            Object_store.object_count store )
        in
        Alcotest.(check (list string)) "every read survives the cycle" before (recovery_view db);
        Db.checkpoint d;
        Db.close_durable d;
        counts
      in
      let first = cycle () in
      for i = 2 to 3 do
        let logical, objects = cycle () in
        let logical0, objects0 = first in
        Alcotest.(check int) (Printf.sprintf "cycle %d: logical bytes" i) logical0 logical;
        Alcotest.(check int) (Printf.sprintf "cycle %d: objects" i) objects0 objects
      done)

(* --- logical records: the re-run reproduces the live run --- *)

(* The last acknowledged block replays from its own record: a crash right
   after the ack (the record durable, the reply lost) reopens with that
   block's values, tombstone, chunked value, history and statement. *)
let test_last_acked_block_replays () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      ignore (Db.put_batch db [ ("a", "1"); ("b", "2") ]);
      Fault.arm "commit.acked";
      (match
         Db.commit db ~statements:[ "last" ]
           Spitz_ledger.Ledger.
             [ Put ("a", "2"); Put ("big", recovery_big 5); Delete "b"; Put ("c", "3") ]
       with
       | exception Fault.Crash _ -> ()
       | _ -> Alcotest.fail "commit.acked did not fire");
      Fault.reset ();
      let digest = Db.digest db in
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      Alcotest.(check bool) "digest" true (Db.digest db' = digest);
      Alcotest.(check (option string)) "a" (Some "2") (Db.get db' "a");
      Alcotest.(check (list (pair int string))) "a history" [ (0, "1"); (1, "2") ] (Db.history db' "a");
      Alcotest.(check (option string)) "b deleted" None (Db.get db' "b");
      Alcotest.(check (list (pair int string))) "b history" [ (0, "2") ] (Db.history db' "b");
      Alcotest.(check (option string)) "chunked value" (Some (recovery_big 5)) (Db.get db' "big");
      Alcotest.(check (option string)) "c" (Some "3") (Db.get db' "c");
      Alcotest.(check (list string)) "statement" [ "last" ]
        (Spitz_ledger.Journal.block (Db.L.journal (Db.ledger db')) 1).Spitz_ledger.Block.statements;
      Db.close_durable d')

(* Every commit consumes one txn id, an empty block too. A snapshot whose
   last block is empty must hand the next commit the id the live ledger
   would have, or every block re-run from the log after it differs. *)
let test_empty_block_before_checkpoint () =
  with_dir (fun dir ->
      let d = Db.open_durable dir in
      let db = Db.durable_db d in
      ignore (Db.put db "a" "1");
      ignore (Db.commit db []);
      Db.checkpoint d;
      ignore (Db.put db "b" "2");
      ignore (Db.put db "a" "3");
      let digest = Db.digest db in
      Db.close_durable d;
      match Db.open_durable dir with
      | exception Db.Corrupt msg -> Alcotest.failf "re-run after an empty block refused: %s" msg
      | d' ->
        Alcotest.(check bool) "digest" true (Db.digest (Db.durable_db d') = digest);
        Db.close_durable d')

(* Replay determinism: a random run of commits (empty batches, deletes,
   duplicate keys within a batch, chunked values, statements, SQL writes)
   with checkpoints at random heights, ended by a crash, reopens to
   byte-identical block bodies, the same digest, and the same cell reads,
   histories and ranges as the live run. *)
type replay_op =
  | Batch of string list * (string * string option) list (* statements; None deletes *)
  | Sql_insert of int * int
  | Checkpoint

let replay_key i = Printf.sprintf "k%d" i

let replay_chunked n = String.init (9_000 + n) (fun i -> Char.chr (((i * (n + 3)) + (i / 509)) land 255))

let gen_replay_ops =
  QCheck.Gen.(
    let value =
      frequency
        [ (6, map (Printf.sprintf "v%d") (int_bound 20)); (1, map replay_chunked (int_bound 40)) ]
    in
    let write = pair (map replay_key (int_bound 5)) (frequency [ (4, map Option.some value); (1, return None) ]) in
    let statements = frequency [ (3, return []); (1, map (fun n -> [ Printf.sprintf "stmt-%d" n ]) nat) ] in
    let op =
      frequency
        [
          (5, map2 (fun st ws -> Batch (st, ws)) statements (list_size (int_range 1 6) write));
          (2, map (fun st -> Batch (st, [])) statements);
          (1, map2 (fun id v -> Sql_insert (id, v)) (int_bound 3) (int_bound 99));
          (2, return Checkpoint);
        ]
    in
    list_size (int_range 1 24) op)

let print_replay_op = function
  | Batch (st, ws) ->
    Printf.sprintf "batch[%s]{%s}" (String.concat ";" st)
      (String.concat ";"
         (List.map
            (fun (k, v) ->
               match v with
               | None -> "del " ^ k
               | Some v when String.length v > 16 -> Printf.sprintf "%s=<%d bytes>" k (String.length v)
               | Some v -> k ^ "=" ^ v)
            ws))
  | Sql_insert (id, v) -> Printf.sprintf "sql(%d,%d)" id v
  | Checkpoint -> "checkpoint"

(* Every surface the property compares, rendered as lines. *)
let replay_view db =
  let opt = function None -> "-" | Some v -> Printf.sprintf "%S" v in
  let journal = Db.L.journal (Db.ledger db) in
  let n = Spitz_ledger.Journal.length journal in
  let keys = List.init 6 replay_key @ List.init 4 (Printf.sprintf "t.v\x1fid%d") in
  List.init n (fun h ->
      Printf.sprintf "body %d %S" h
        (Object_store.get_exn (Db.store db) (Spitz_ledger.Journal.body_hash journal h)))
  @ List.concat_map
      (fun k ->
         [ Printf.sprintf "%S get %s" k (opt (Db.get db k));
           Printf.sprintf "%S history %s" k
             (String.concat "," (List.map (fun (h, v) -> Printf.sprintf "%d:%S" h v) (Db.history db k))) ])
      keys
  @ List.map (fun (k, v) -> Printf.sprintf "range %S=%S" k v) (Db.range db ~lo:"" ~hi:"\xff")
  @ [ "digest " ^ Spitz_crypto.Hash.to_hex (Db.digest db).Spitz_ledger.Journal.root ]

let prop_replay_reproduces_live =
  QCheck.Test.make ~name:"replay: re-run reproduces the live run" ~count:40
    (QCheck.make ~print:(fun ops -> String.concat " " (List.map print_replay_op ops)) gen_replay_ops)
    (fun ops ->
       with_dir (fun dir ->
           let d = Db.open_durable ~sync:Wal.Never dir in
           let db = Db.durable_db d in
           let env = Sql.env db in
           ignore (Sql.exec env "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
           List.iter
             (function
               | Batch (statements, ws) ->
                 ignore
                   (Db.commit db ~statements
                      (List.map
                         (fun (k, v) ->
                            match v with
                            | Some v -> Spitz_ledger.Ledger.Put (k, v)
                            | None -> Spitz_ledger.Ledger.Delete k)
                         ws))
               | Sql_insert (id, v) ->
                 ignore (Sql.exec env (Printf.sprintf "INSERT INTO t (id, v) VALUES ('id%d', %d)" id v))
               | Checkpoint -> Db.checkpoint d)
             ops;
           (* end with a crash: the last commit's ack is lost, its record
              is in the log, the handle is abandoned *)
           Fault.arm "commit.acked";
           (match Db.put db (replay_key 0) "final" with
            | exception Fault.Crash _ -> ()
            | _ -> Alcotest.fail "commit.acked did not fire");
           Fault.reset ();
           let live = replay_view db in
           let d' = Db.open_durable dir in
           let reopened = replay_view (Db.durable_db d') in
           Db.close_durable d';
           live = reopened))

(* --- a reopen rebuilds the cell store the live commits built --- *)

(* Blocks of puts and deletes over keys that share cells and prefixes: KV
   keys of the default column [v] (["k"] and ["v\x1fk"] are one cell), and
   the schema columns [t.c] and [t.cc] over pks ["k"], ["kk"] and ["l"].
   Values are printed JSON ints, so the SQL layer reads them. *)
let cell_keys =
  [| "k"; "kk"; "v\x1fk"; "t.c\x1fk"; "t.c\x1fkk"; "t.c\x1fl"; "t.cc\x1fk"; "t.cc\x1fkk" |]

let gen_cell_blocks =
  QCheck.Gen.(
    let write =
      map2
        (fun k v -> (cell_keys.(k), if v = 0 then None else Some (string_of_int v)))
        (int_bound (Array.length cell_keys - 1))
        (int_bound 3)
    in
    list_size (int_range 1 12) (list_size (int_bound 6) write))

let print_cell_blocks =
  QCheck.Print.list
    (QCheck.Print.list (fun (k, v) ->
         Printf.sprintf "%S%s" k (match v with None -> " del" | Some v -> "=" ^ v)))

(* The model: per cell, the block's last write to it at each height. *)
let cell_of key =
  match String.index_opt key '\x1f' with
  | Some i -> (String.sub key 0 i, String.sub key (i + 1) (String.length key - i - 1))
  | None -> ("v", key)

module Cells = Map.Make (struct
    type t = string * string
    let compare = compare
  end)

(* cell -> (height, value or tombstone) list, newest first *)
let model_of blocks =
  let _, model =
    List.fold_left
      (fun (h, model) writes ->
         let last =
           List.fold_left (fun acc (k, v) -> Cells.add (cell_of k) v acc) Cells.empty writes
         in
         ( h + 1,
           Cells.fold
             (fun cell v model ->
                Cells.update cell (fun vs -> Some ((h, v) :: Option.value vs ~default:[])) model)
             last model ))
      (0, Cells.empty) blocks
  in
  model

let cell_spec =
  { Schema.table_name = "t";
    primary_key = "id";
    columns =
      [ { Schema.col_name = "c"; col_type = Schema.T_int; indexed = false };
        { Schema.col_name = "cc"; col_type = Schema.T_int; indexed = true } ] }

(* What the database reads for every key, every height, and the SQL scans,
   against what the model says. *)
let check_against_model what blocks db =
  let model = model_of blocks in
  let n = List.length blocks in
  let versions key = Option.value (Cells.find_opt (cell_of key) model) ~default:[] in
  let at h vs = match List.find_opt (fun (ts, _) -> ts <= h) vs with Some (_, v) -> v | None -> None in
  let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_reportf "%s: %s" what s) fmt in
  let opt = function None -> "None" | Some v -> v in
  Array.iter
    (fun key ->
       let vs = versions key in
       if Db.get db key <> at max_int vs then
         fail "get %S = %s, model %s" key (opt (Db.get db key)) (opt (at max_int vs));
       for h = 0 to n - 1 do
         if Db.get_at db ~height:h key <> at h vs then fail "get_at %d %S" h key
       done;
       let history = List.rev (List.filter_map (fun (h, v) -> Option.map (fun v -> (h, v)) v) vs) in
       if Db.history db key <> history then fail "history %S" key)
    cell_keys;
  let count = Cells.fold (fun _ vs acc -> acc + List.length vs) model 0 in
  if Db.cell_count db <> count then fail "cell_count %d, model %d" (Db.cell_count db) count;
  (* SQL: rows by the first column's live cells, in pk order *)
  let table = Schema.create db cell_spec in
  let live col pk = at max_int (Option.value (Cells.find_opt ("t." ^ col, pk) model) ~default:[]) in
  let pks = [ "k"; "kk"; "l" ] in
  let rows =
    List.filter_map
      (fun pk ->
         match live "c" pk with
         | None -> None
         | Some _ ->
           Some
             ( pk,
               List.filter_map
                 (fun col -> Option.map (fun v -> (col, Json.of_string v)) (live col pk))
                 [ "c"; "cc" ] ))
      pks
  in
  if Schema.select_range table ~pk_lo:"" ~pk_hi:"\xff" <> rows then fail "select_range";
  if Schema.select_range table ~pk_lo:"kk" ~pk_hi:"kk" <> List.filter (fun (pk, _) -> pk = "kk") rows
  then fail "select_range of one pk";
  List.iter
    (fun col ->
       for v = 1 to 3 do
         let expected = List.filter (fun pk -> live col pk = Some (string_of_int v)) pks in
         if Schema.find_by_value table ~col (Json.Num (float_of_int v)) <> expected then
           fail "find_by_value %s = %d" col v
       done)
    [ "c"; "cc" ];
  true

let commit_cell_blocks db blocks =
  List.iter
    (fun writes ->
       ignore
         (Db.commit db
            (List.map
               (fun (k, v) ->
                  match v with
                  | Some v -> Spitz_ledger.Ledger.Put (k, v)
                  | None -> Spitz_ledger.Ledger.Delete k)
               writes)))
    blocks

let prop_reopen_rebuilds_cells =
  QCheck.Test.make ~name:"reopen rebuilds the cell store the commits built" ~count:60
    (QCheck.make ~print:print_cell_blocks gen_cell_blocks)
    (fun blocks ->
       let reopened ~checkpoint =
         with_dir (fun dir ->
             let d = Db.open_durable ~sync:Wal.Never dir in
             commit_cell_blocks (Db.durable_db d) blocks;
             ignore (check_against_model "live" blocks (Db.durable_db d));
             if checkpoint then Db.checkpoint d;
             Db.close_durable d;
             let d = Db.open_durable dir in
             Fun.protect
               ~finally:(fun () -> Db.close_durable d)
               (fun () ->
                  let db = Db.durable_db d in
                  if not (Db.audit db) then QCheck.Test.fail_report "reopen does not audit";
                  check_against_model
                    (if checkpoint then "checkpointed reopen" else "wal-only reopen")
                    blocks db))
       in
       reopened ~checkpoint:true && reopened ~checkpoint:false)

(* One block writes k twice and then deletes it, and writes j twice: the
   snapshot keeps only j's last value, and the reopen must not look for the
   values the block overwrote. *)
let test_overwritten_writes_reopen () =
  with_dir (fun dir ->
      let d = Db.open_durable ~sync:Wal.Never dir in
      let db = Db.durable_db d in
      ignore (Db.put db "k" "before");
      let height =
        Db.commit db
          Spitz_ledger.Ledger.
            [ Put ("k", "k1"); Put ("k", "k2"); Delete "k"; Put ("j", "j1"); Put ("j", "j2") ]
      in
      Db.checkpoint d;
      Db.close_durable d;
      let d = Db.open_durable dir in
      Fun.protect
        ~finally:(fun () -> Db.close_durable d)
        (fun () ->
           let db = Db.durable_db d in
           Alcotest.(check bool) "audit" true (Db.audit db);
           Alcotest.(check (option string)) "get k" None (Db.get db "k");
           Alcotest.(check (list (pair int string))) "history k" [ (0, "before") ] (Db.history db "k");
           Alcotest.(check (list (pair int string))) "history j" [ (height, "j2") ]
             (Db.history db "j");
           Alcotest.(check int) "cells" 3 (Db.cell_count db);
           let o = Db.open_stats d in
           Alcotest.(check int) "blocks restored" 2 o.Db.blocks;
           Alcotest.(check int) "entries walked" 6 o.Db.entries;
           Alcotest.(check int) "log records" 0 o.Db.records))

(* --- conditional commits --- *)

(* A read set is validated under the commit lock against each key's newest
   cell version, a tombstone included. A conflict makes nothing: no block,
   no log record, no cell version. A commit that passes is the blind commit
   of the same batch — the digests match an in-memory twin that commits
   every batch blind — and a reopen re-runs its record with no read set. *)
let test_conditional_commit () =
  with_dir @@ fun dir ->
  let module L = Spitz_ledger.Ledger in
  let twin = Db.open_db () in
  let d = Db.open_durable ~sync:Wal.Always dir in
  let db = Db.durable_db d in
  let both ?reads writes =
    let h = Db.commit db ?reads writes in
    Alcotest.(check int) "the blind twin commits at the same height" h (Db.commit twin writes);
    h
  in
  let h0 = both [ L.Put ("counter", "0"); L.Put ("other", "x") ] in
  let h1 = both ~reads:[ ("counter", h0) ] [ L.Put ("counter", "1") ] in
  let conflicts what ~key ~height reads =
    let digest = Db.digest db
    and records = (Db.wal_stats d).Wal.records
    and cells = Db.cell_count db in
    (match Db.commit db ~reads [ L.Put (key, "lost") ] with
     | _ -> Alcotest.fail (what ^ ": the commit must conflict")
     | exception Db.Conflict c ->
       Alcotest.(check string) (what ^ ": conflicting key") key c.key;
       Alcotest.(check int) (what ^ ": the block that wrote it") height c.height);
    Alcotest.(check bool) (what ^ ": digest unchanged") true (Db.digest db = digest);
    Alcotest.(check int) (what ^ ": no log record") records (Db.wal_stats d).Wal.records;
    Alcotest.(check int) (what ^ ": no cell version") cells (Db.cell_count db)
  in
  conflicts "stale read" ~key:"counter" ~height:h1 [ ("other", h1); ("counter", h0) ];
  conflicts "read before the first block" ~key:"counter" ~height:h1 [ ("counter", -1) ];
  let h2 = both [ L.Delete "other" ] in
  conflicts "a delete since the read" ~key:"other" ~height:h2 [ ("other", h1) ];
  ignore (both ~reads:[ ("fresh", -1); ("counter", h1); ("other", h2) ] [ L.Put ("fresh", "1") ]);
  (match Db.commit db ~reads:[ (Db.catalog_column ^ "\x1fitems", h2) ] [ L.Put ("x", "y") ] with
   | _ -> Alcotest.fail "a catalog key in a read set must be refused"
   | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "digest = the blind twin's" true (Db.digest db = Db.digest twin);
  let digest = Db.digest db in
  Db.close_durable d;
  let d = Db.open_durable dir in
  Fun.protect ~finally:(fun () -> Db.close_durable d) @@ fun () ->
  let db = Db.durable_db d in
  Alcotest.(check bool) "the reopen re-runs the log to the same digest" true (Db.digest db = digest);
  Alcotest.(check (option string)) "counter" (Some "1") (Db.get db "counter")

let suite =
  [
    Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
    Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal torn tail at every offset" `Quick test_wal_torn_tail_every_offset;
    Alcotest.test_case "wal bit flip truncates tail" `Quick test_wal_bitflip_tail;
    Alcotest.test_case "wal submit/wait coalesces a batch" `Quick test_wal_submit_wait_coalesce;
    Alcotest.test_case "wal group policy roundtrip" `Quick test_wal_group_policy_append;
    Alcotest.test_case "wal lone committer never lingers" `Quick
      test_wal_lone_committer_never_lingers;
    Alcotest.test_case "wal concurrent appenders" `Quick test_wal_concurrent_appenders;
    Alcotest.test_case "wal crash mid coalesced batch" `Quick test_wal_crash_mid_batch;
    Alcotest.test_case "wal crash before batch fsync" `Quick test_wal_crash_before_sync_multi;
    Alcotest.test_case "save is atomic under crash" `Quick test_save_atomic_on_crash;
    Alcotest.test_case "varint overflow rejected" `Quick test_varint_overflow_rejected;
    Alcotest.test_case "negative length rejected" `Quick test_negative_length_rejected;
    Alcotest.test_case "oversized length rejected" `Quick test_oversized_length_rejected;
    Alcotest.test_case "snapshot count field is written as 1 and ignored on read" `Quick
      test_snapshot_count_field_inert;
    Alcotest.test_case "compacted snapshot: truncation at every offset" `Quick
      test_compacted_truncation_every_offset;
    Alcotest.test_case "compacted snapshot: bit flips never corrupt silently" `Quick
      test_compacted_bitflip_no_silent_corruption;
    Alcotest.test_case "compacted snapshot: a damaged value blob is Corrupt" `Quick
      test_compacted_value_flip_is_corrupt;
    Alcotest.test_case "compacted snapshot loads like the live database" `Quick
      test_compacted_snapshot_loads;
    Alcotest.test_case "compact after a compacting reopen" `Quick
      test_compact_after_compacting_reopen;
    Alcotest.test_case "durable roundtrip (log only)" `Quick test_durable_basic_roundtrip;
    Alcotest.test_case "durable checkpoint" `Quick test_durable_checkpoint;
    Alcotest.test_case "durable large values + batches" `Quick
      test_durable_large_values_and_batches;
    Alcotest.test_case "durable fsync policies" `Quick test_durable_fsync_policies;
    Alcotest.test_case "durable sql acked after fsync" `Quick test_durable_sql_acked_after_fsync;
    Alcotest.test_case "crash at every commit site" `Quick test_crash_during_commit;
    Alcotest.test_case "crash at every commit site (group)" `Quick
      test_crash_during_commit_group;
    Alcotest.test_case "crash at every checkpoint site" `Quick test_crash_during_checkpoint;
    Alcotest.test_case "crash at every checkpoint site (group)" `Quick
      test_crash_during_checkpoint_group;
    Alcotest.test_case "multi-segment crash shapes" `Quick test_crash_multi_segment;
    Alcotest.test_case "multi-segment crash shapes (group)" `Quick
      test_crash_multi_segment_group;
    Alcotest.test_case "wal rotate + retire" `Quick test_wal_rotate_retire;
    Alcotest.test_case "wal sealed-segment damage raises" `Quick
      test_wal_sealed_corruption_raises;
    Alcotest.test_case "wal path that is a regular file is rejected" `Quick
      test_wal_regular_file_rejected;
    Alcotest.test_case "wal close drains pending batch" `Quick test_wal_close_drains_pending;
    Alcotest.test_case "wal close surfaces errors" `Quick test_wal_close_surfaces_errors;
    Alcotest.test_case "orphan checkpoint temp removed on strict open" `Quick
      test_orphan_tmp_removed_strict_open;
    Alcotest.test_case "strict open rejects torn tail" `Quick
      test_strict_open_rejects_torn_tail;
    Alcotest.test_case "multi-segment corruption sweep" `Quick
      test_multi_segment_corruption_sweep;
    Alcotest.test_case "auto checkpoint: record threshold" `Quick
      test_auto_checkpoint_records;
    Alcotest.test_case "auto checkpoint retries after failure" `Quick
      test_auto_checkpoint_retries_after_failure;
    Alcotest.test_case "torn log tail recovers" `Quick test_durable_torn_log_file;
    Alcotest.test_case "corrupt log record recovers" `Quick test_durable_corrupt_log_record;
    Alcotest.test_case "concurrent committers recover" `Quick
      test_durable_concurrent_committers;
    Alcotest.test_case "concurrent run + torn tail" `Quick test_durable_concurrent_torn_tail;
    Alcotest.test_case "checkpoint races committers" `Quick test_durable_concurrent_checkpoint;
    Alcotest.test_case "batched commits store no unreachable nodes" `Quick
      test_batched_commits_store_no_garbage;
    Alcotest.test_case "physical-record segment refused" `Quick test_physical_segment_refused;
    Alcotest.test_case "checkpointed physical-record dir opens" `Quick
      test_checkpointed_physical_wal_opens;
    Alcotest.test_case "inverted-index flag dir opens" `Quick test_inverted_flag_opens;
    Alcotest.test_case "recovery reads values by content address" `Quick
      test_recovery_reads_by_content_address;
    Alcotest.test_case "last acked block replays from its record" `Quick
      test_last_acked_block_replays;
    Alcotest.test_case "empty block before a checkpoint" `Quick
      test_empty_block_before_checkpoint;
    Alcotest.test_case "reopen cycles keep the store's counters" `Quick
      test_reopen_cycles_keep_counters;
    QCheck_alcotest.to_alcotest prop_replay_reproduces_live;
    Alcotest.test_case "wal I/O error fails every waiter" `Quick
      test_wal_io_error_fails_every_waiter;
    Alcotest.test_case "wal I/O error: Apply answers Error" `Quick test_wal_io_error_fails_apply;
    Alcotest.test_case "checkpoint counts a failed dir fsync" `Quick
      test_checkpoint_counts_dir_fsync_failure;
    QCheck_alcotest.to_alcotest prop_reopen_rebuilds_cells;
    Alcotest.test_case "overwritten writes of a block reopen" `Quick test_overwritten_writes_reopen;
    Alcotest.test_case "conditional commit: a conflict leaves no trace" `Quick
      test_conditional_commit;
  ]
