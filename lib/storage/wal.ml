type sync_policy =
  | Always
  | Interval of int
  | Never
  | Group of { max_batch : int; max_delay_us : int }

exception Corrupt of string

exception Failed of string

(* The log is a *directory* of numbered segment files (wal.000001,
   wal.000002, ...). Appends go to the highest-numbered (active) segment;
   [rotate] seals it and opens a fresh one — one file create plus a
   directory fsync, microseconds, so the durable database can rotate under
   its commit lock and write its checkpoint snapshot outside it; [retire]
   deletes sealed segments once a snapshot has made their records
   redundant. Recovery replays every live segment in numeric order: only
   the last may carry a torn tail (it was the active segment when the
   process died) — damage in any earlier segment is real corruption, since
   sealed segments were fully written and fsynced before rotation returned.

   Every segment begins with a version header ([segment_header]), written
   when the segment is created. Version 2 segments carry the durable
   database's logical records (one commit's batch each); the headerless
   segments of earlier releases carried physical store objects, and a
   segment without the header is refused by name rather than misread. The
   header is not counted in [size] or [stats], which count framed records;
   [replay]'s byte accounting covers whole files.

   Two classes of sync policy:

   - [Interval]/[Never] write each frame at submit time (one [write] per
     record, fsync per policy) — the original behaviour, now under a mutex
     so concurrent appenders are safe.

   - [Always]/[Group] run leader/follower group commit: [submit] only
     frames the record into an in-memory batch buffer; the first waiter
     whose batch is not yet durable elects itself leader, swaps the batch
     out (double buffering: new submissions keep landing in the other
     buffer while the leader does I/O), writes every pending frame in a
     single [write], fsyncs once, and wakes all waiters. No committer is
     acknowledged ([wait] returns) before its record is durable. When 3 or
     more committers are evident the leader lingers for more to arrive:
     [Group] up to [max_delay_us] while fewer than [max_batch] records are
     pending, [Always] for about one fsync's cost; one or two committers
     never linger. *)

type t = {
  dir : string;
  mutable seg_id : int;          (* id of the active segment *)
  mutable fd : Unix.file_descr;  (* active segment, open for append *)
  mutable seg_bytes : int;       (* record bytes written to the active segment *)
  mutable sealed : (int * int) list; (* sealed segments (id, record bytes), oldest first *)
  sync_policy : sync_policy;
  mutable pending : int; (* appends since the last fsync (Interval only) *)
  mutable pending_bytes : int;   (* frame bytes submitted but not yet written
                                    — the in-memory batch the Group policy
                                    holds; counted so a size-triggered
                                    checkpoint cannot lag behind unflushed
                                    records *)
  mutable closed : bool;
  mutable failed : string option;
  (* the I/O error that stopped the log, if one did; set under [m] *)
  (* group-commit state, guarded by [m] *)
  m : Mutex.t;
  flushed : Condition.t;           (* broadcast after every flush; waiters
                                      re-check [durable_seq] *)
  idle : Condition.t;              (* broadcast when a flush ends; drain
                                      waiters re-check [flushing] *)
  mutable active : Slice.Writer.w; (* frames of the batch accepting submits *)
  mutable standby : Slice.Writer.w; (* double buffer: swapped in at flush *)
  mutable frame_ends : int list;   (* record end offsets in [active], newest first *)
  mutable batch : int;             (* sequence number of the active batch *)
  mutable durable_seq : int;       (* highest batch sequence known durable *)
  mutable flushing : bool;         (* a leader currently owns the flush *)
  mutable last_batch_n : int;      (* records in the last flushed batch *)
  mutable backlog : int;           (* records already pending when the last
                                      flush ended — submits that landed while
                                      the leader was on the disk *)
  mutable last_fsync_s : float;    (* duration of the last fsync, seconds *)
  head : Bytes.t;                  (* preallocated 8-byte frame-header scratch *)
  mutable n_records : int;         (* records submitted over the log's life *)
  mutable n_fsyncs : int;          (* fsyncs issued over the log's life *)
  mutable n_rotations : int;       (* segment rotations over the log's life *)
  mutable n_lingers : int;         (* linger slices slept over the log's life *)
}

type stats = {
  records : int;
  fsyncs : int;
  rotations : int;
  segments : int;
  disk_bytes : int;
  pending_bytes : int;
  lingers : int;
}

type ticket = int

let header_len = 8 (* 4-byte length + 4-byte crc, both little-endian *)

(* Magic plus the format version byte. *)
let segment_header = "SPITZWAL\002"
let segment_header_len = String.length segment_header

let set_le32 b off v =
  for i = 0 to 3 do
    Bytes.set b (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let read_le32 s off =
  let b i = Char.code s.[off + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

(* A failure to open or fsync the directory is raised: the caller's rename
   or file creation may not survive a crash. Only a filesystem that
   refuses to fsync directories at all ([EINVAL]) is let through. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
       Fault.hit_io "wal.fsync_dir";
       try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

(* --- segment naming --- *)

let segment_name id = Printf.sprintf "wal.%06d" id
let segment_path dir id = Filename.concat dir (segment_name id)

let segment_of_name name =
  let n = String.length name in
  if n >= 10 && String.sub name 0 4 = "wal." then
    let digits = String.sub name 4 (n - 4) in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then
      int_of_string_opt digits
    else None
  else None

(* Live segment ids in the directory, ascending. *)
let list_segments dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map segment_of_name
    |> List.sort compare

let file_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let older_format name =
  Corrupt
    (Printf.sprintf
       "wal: segment %s has no version-2 header: it holds the physical records of an \
        earlier release; open the database with that release, checkpoint it, then \
        open it with this one"
       name)

(* Classify the first bytes of a segment file of [total] bytes: [`Headed]
   (the version header is there), [`Torn] (the file is a strict prefix of
   the header: a crash between the segment's creation and its header
   write), or [`Older] (anything else). *)
let header_state ic total =
  let n = min total segment_header_len in
  let head = really_input_string ic n in
  if not (String.equal head (String.sub segment_header 0 n)) then `Older
  else if n < segment_header_len then `Torn
  else `Headed

let write_all fd b pos len =
  let off = ref pos and left = ref len in
  while !left > 0 do
    let n = Unix.write fd b !off !left in
    off := !off + n;
    left := !left - n
  done

let write_segment_header fd =
  write_all fd (Bytes.of_string segment_header) 0 segment_header_len

(* The log is a directory of segments. A regular file at its path is not a
   log this code wrote — refuse it rather than guess. *)
let check_not_file ~op dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    invalid_arg
      (Printf.sprintf "Wal.%s: %s is a regular file, not a segment directory" op dir)

let open_log ?(sync = Always) dir =
  check_not_file ~op:"open_log" dir;
  if not (Sys.file_exists dir) then begin
    Sys.mkdir dir 0o755;
    fsync_dir (Filename.dirname dir)
  end;
  let segs = list_segments dir in
  let seg_id, sealed, fresh =
    match List.rev segs with
    | [] -> (1, [], true)
    | last :: earlier ->
      ( last,
        List.rev_map
          (fun id -> (id, max 0 (file_size (segment_path dir id) - segment_header_len)))
          earlier,
        false )
  in
  let path = segment_path dir seg_id in
  let size = file_size path in
  (* an empty active segment (fresh, emptied by a checkpoint of an earlier
     release, or repaired down to nothing) gets its header now; a non-empty
     one must already carry it *)
  if size > 0 then
    In_channel.with_open_bin path (fun ic ->
        match header_state ic size with
        | `Headed -> ()
        | `Older -> raise (older_format (segment_name seg_id))
        | `Torn ->
          raise
            (Corrupt
               (Printf.sprintf "wal: segment %s has a torn header; replay it with repair first"
                  (segment_name seg_id))));
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  if size = 0 then write_segment_header fd;
  if fresh then fsync_dir dir;
  let seg_bytes = max 0 (size - segment_header_len) in
  {
    dir;
    seg_id;
    fd;
    seg_bytes;
    sealed;
    sync_policy = sync;
    pending = 0;
    pending_bytes = 0;
    closed = false;
    failed = None;
    m = Mutex.create ();
    flushed = Condition.create ();
    idle = Condition.create ();
    active = Slice.Writer.create ~size:4096 ();
    standby = Slice.Writer.create ~size:4096 ();
    frame_ends = [];
    batch = 0;
    durable_seq = -1;
    flushing = false;
    last_batch_n = 0;
    backlog = 0;
    last_fsync_s = 0.;
    head = Bytes.create header_len;
    n_records = 0;
    n_fsyncs = 0;
    n_rotations = 0;
    n_lingers = 0;
  }

let path t = t.dir
let policy t = t.sync_policy

let disk_bytes t =
  List.fold_left (fun acc (_, b) -> acc + b) t.seg_bytes t.sealed

let size t = disk_bytes t + t.pending_bytes

let stats t =
  {
    records = t.n_records;
    fsyncs = t.n_fsyncs;
    rotations = t.n_rotations;
    segments = List.length t.sealed + 1;
    disk_bytes = disk_bytes t;
    pending_bytes = t.pending_bytes;
    lingers = t.n_lingers;
  }

let check_open t op = if t.closed then invalid_arg ("Wal." ^ op ^ ": log is closed")

let buffered t = match t.sync_policy with Always | Group _ -> true | Interval _ | Never -> false

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Fail-stop: an I/O error writing or syncing the log leaves its records
   maybe on disk and maybe not, so nothing after them may be acknowledged.
   The first error stops the log for good: every waiter and every later
   submit, sync or rotation raises [Failed], and a flush that was under way
   ends so nobody waits on it. Caller holds [m]; returns the exception to
   raise. *)
let fail_locked t e =
  let msg =
    match e with
    | Unix.Unix_error (err, fn, arg) ->
      Printf.sprintf "wal: %s%s: %s" fn (if arg = "" then "" else " " ^ arg)
        (Unix.error_message err)
    | e -> Printexc.to_string e
  in
  if t.failed = None then t.failed <- Some msg;
  t.flushing <- false;
  Condition.broadcast t.flushed;
  Condition.broadcast t.idle;
  Failed (Option.get t.failed)

(* Safe without [m] too: a commit checks it before its serial work, and
   one racing the failure meets it again at submit. *)
let check_failed t = match t.failed with Some msg -> raise (Failed msg) | None -> ()

let fsync_unlocked t =
  (try Unix.fsync t.fd with Unix.Unix_error _ as e -> raise (fail_locked t e));
  t.n_fsyncs <- t.n_fsyncs + 1;
  t.pending <- 0

(* Frame one record into [buf] using the log's preallocated header scratch
   (no per-record allocation on the hot path). The record is a view, so it is
   copied once, straight into the batch buffer. The CRC covers the 4 length
   bytes plus the payload, folded straight off the scratch and the view — no
   substring. Caller holds [m]. *)
let frame_into t buf record =
  let len = Slice.length record in
  set_le32 t.head 0 len;
  let crc =
    Crc32.update_bytes (Crc32.update_bytes 0l t.head 0 4)
      (Slice.unsafe_base record) (Slice.unsafe_off record) len
  in
  set_le32 t.head 4 (Int32.to_int crc land 0xffffffff);
  Slice.Writer.add_bytes buf t.head 0 header_len;
  Slice.Writer.add_slice buf record

(* Write the first [total] bytes of [data] (one frame, or a whole coalesced
   batch of frames whose record boundaries are [ends]) straight from the
   batch writer's buffer, with the crash-injection sites:
   ["wal.append.torn"] tears the write mid-frame, ["wal.flush.mid_batch"]
   tears it at a record boundary in the middle of a multi-record batch. *)
let write_frames t ~ends data total =
  if total > 0 then begin
    let nrecords = List.length ends in
    if Fault.armed "wal.flush.mid_batch" && nrecords > 1 then begin
      (* an exact prefix of records reaches the file, then death *)
      let keep = List.nth ends ((nrecords / 2) - 1) in
      write_all t.fd data 0 keep;
      t.seg_bytes <- t.seg_bytes + keep;
      Fault.hit "wal.flush.mid_batch";
      (* the armed countdown survived this hit: finish the batch normally *)
      write_all t.fd data keep (total - keep);
      t.seg_bytes <- t.seg_bytes + (total - keep)
    end
    else if Fault.armed "wal.append.torn" then begin
      (* simulate a torn write: half the bytes reach the file, then death *)
      let half = max 1 (total / 2) in
      write_all t.fd data 0 half;
      t.seg_bytes <- t.seg_bytes + half;
      Fault.hit "wal.append.torn";
      write_all t.fd data half (total - half);
      t.seg_bytes <- t.seg_bytes + (total - half)
    end
    else begin
      write_all t.fd data 0 total;
      t.seg_bytes <- t.seg_bytes + total
    end
  end;
  Fault.hit "wal.append.before_sync"

(* Linger before swapping the batch out: sleep in short slices (lock
   released) while new frames keep arriving, and stop as soon as the
   arrival stream pauses — committers mid-pipeline get to join the batch,
   but an idle system never waits out a fixed timer. [cap] bounds the
   total linger, [max_batch] stops it early. Caller holds [m]. *)
let linger_locked t ~cap ~max_batch =
  let slice = 40e-6 in
  let deadline = Unix.gettimeofday () +. cap in
  let rec grow () =
    let n0 = List.length t.frame_ends in
    if n0 < max_batch && Unix.gettimeofday () < deadline then begin
      t.n_lingers <- t.n_lingers + 1;
      Mutex.unlock t.m;
      Unix.sleepf slice;
      Mutex.lock t.m;
      if List.length t.frame_ends > n0 then grow ()
    end
  in
  grow ()

(* Evidence of at least 3 live committers: the last batch coalesced 3
   records, 2 piled up behind the previous flush (submits that landed while
   the leader was on the disk), or 3 are pending right now. One or two
   committers never show any of these — each waits for its own record
   before it submits the next — so they never linger. A lone committer's
   linger slice is a 40 µs sleep that the scheduler stretches to about
   100 µs, paid on every commit for a batch-mate that never comes; a pair
   does better ping-ponging, each one's fsync overlapping the other's
   commit work, than paying a slice to save one fsync. *)
let committers_evident t =
  t.last_batch_n >= 3 || t.backlog >= 2 || List.compare_length_with t.frame_ends 3 >= 0

(* Leader flush of the active batch. Called with [m] held and
   [t.flushing = false]; returns with [m] held, the batch durable and all
   waiters woken. I/O happens outside the lock, so submitters keep framing
   records into the standby buffer while the leader is on the disk.

   With evidence of 3 or more live committers the leader first holds the
   flush while committers keep arriving, so they share this fsync instead
   of fragmenting into the next. [Group] caps the hold at [max_delay_us]
   and [max_batch] records; [Always] self-tunes its cap to the disk, a beat
   of one fsync's cost, since beyond that waiting loses to just flushing
   twice. *)
let flush_locked ?(linger = true) t =
  check_failed t;
  t.flushing <- true;
  if linger && committers_evident t then begin
    let cap, max_batch =
      match t.sync_policy with
      | Group { max_batch; max_delay_us } -> (float_of_int max_delay_us /. 1e6, max_batch)
      | Always | Interval _ | Never -> (Float.min (Float.max t.last_fsync_s 40e-6) 2e-3, max_int)
    in
    linger_locked t ~cap ~max_batch
  end;
  let seq = t.batch in
  let buf = t.active in
  let ends = List.rev t.frame_ends in
  let taken = Slice.Writer.length buf in
  (* swap the double buffer: new submissions land in the standby while the
     batch just taken is on its way to the disk *)
  t.active <- t.standby;
  t.standby <- buf;
  t.frame_ends <- [];
  t.batch <- seq + 1;
  Mutex.unlock t.m;
  (* one [write] and one [fsync] for the whole batch, straight from the
     batch buffer — no [Buffer.contents] copy of the coalesced frames. The
     swapped-out buffer is not touched again until the *next* flush swaps
     it back in, which cannot start while [flushing] is set. *)
  let fsync_t0 =
    match
      Fault.hit_io "wal.flush.io";
      write_frames t ~ends (Slice.Writer.unsafe_bytes buf) taken;
      let fsync_t0 = Unix.gettimeofday () in
      Unix.fsync t.fd;
      fsync_t0
    with
    | t0 -> t0
    | exception (Unix.Unix_error _ as e) ->
      Mutex.lock t.m;
      raise (fail_locked t e)
  in
  t.last_fsync_s <- Unix.gettimeofday () -. fsync_t0;
  t.n_fsyncs <- t.n_fsyncs + 1;
  t.last_batch_n <- List.length ends;
  Slice.Writer.clear buf;
  Mutex.lock t.m;
  t.pending_bytes <- t.pending_bytes - taken;
  t.durable_seq <- seq;
  t.flushing <- false;
  (* records already waiting prove other committers are in flight — the
     signal that bootstraps the adaptive linger before any batch has
     coalesced enough records to speak for itself *)
  t.backlog <- List.length t.frame_ends;
  (* wake everyone: this batch's waiters see [durable_seq] and return, and
     the *next* batch's waiters get their chance to elect a leader. Handing
     leadership over — rather than this leader flushing the next batch
     itself — matters for coalescing: the new leader's linger window is one
     this (just-acknowledged) leader can come back and join with its own
     next record, which is what lifts two ping-ponging committers out of
     the one-record-per-fsync rut *)
  Condition.broadcast t.flushed;
  Condition.broadcast t.idle

let no_ticket = -1

let submit_slice t record =
  check_open t "submit";
  locked t (fun () ->
      check_failed t;
      t.n_records <- t.n_records + 1;
      if buffered t then begin
        frame_into t t.active record;
        t.frame_ends <- Slice.Writer.length t.active :: t.frame_ends;
        t.pending_bytes <- t.pending_bytes + header_len + Slice.length record;
        t.batch
      end
      else begin
        (* unbuffered policies write the frame now (straight from the
           standby scratch, which group commit never uses here), fsync per
           policy *)
        Slice.Writer.clear t.standby;
        frame_into t t.standby record;
        let total = Slice.Writer.length t.standby in
        (try write_frames t ~ends:[ total ] (Slice.Writer.unsafe_bytes t.standby) total
         with Unix.Unix_error _ as e -> raise (fail_locked t e));
        Slice.Writer.clear t.standby;
        (match t.sync_policy with
         | Interval n ->
           t.pending <- t.pending + 1;
           if t.pending >= max 1 n then fsync_unlocked t
         | _ -> ());
        no_ticket
      end)

let submit t record = submit_slice t (Slice.of_string record)

let wait t ticket =
  if ticket >= 0 then begin
    Mutex.lock t.m;
    let rec loop () =
      if t.durable_seq >= ticket then ()
      else if t.failed <> None then check_failed t
      else if t.flushing then begin
        Condition.wait t.flushed t.m;
        loop ()
      end
      else begin
        (* leader election: this waiter flushes everything pending *)
        flush_locked t;
        loop ()
      end
    in
    (* on a crash-injected exception the leader dies mid-flush, as the
       process would — the handle is left wedged, not unlocked-and-retried.
       An I/O error is not a crash: it fails the log and every waiter *)
    match loop () with
    | () -> Mutex.unlock t.m
    | exception (Failed _ as e) ->
      Mutex.unlock t.m;
      raise e
  end

let append t record = wait t (submit t record)

(* Drain any pending batch without lingering; caller holds [m]. *)
let drain_locked t =
  while t.flushing do
    Condition.wait t.idle t.m
  done;
  if t.frame_ends <> [] then flush_locked ~linger:false t

let sync t =
  check_open t "sync";
  locked t (fun () ->
      check_failed t;
      if buffered t then drain_locked t else ();
      fsync_unlocked t)

(* --- rotation & retirement --- *)

let rotate t =
  check_open t "rotate";
  locked t (fun () ->
      check_failed t;
      (* seal the active segment: every record framed so far must be on its
         way to *this* file, and the file must be durable before a
         checkpoint may treat its records as snapshot-covered *)
      (if buffered t then drain_locked t);
      fsync_unlocked t;
      Fault.hit "rotate.begin";
      let next = t.seg_id + 1 in
      let fd' =
        Unix.openfile (segment_path t.dir next)
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      in
      write_segment_header fd';
      (* the new segment's directory entry must survive a crash before any
         record lands in it — otherwise recovery would replay the sealed
         segments and then miss the file the next commits went to. If it
         cannot be made durable the log cannot go on in either file *)
      (try fsync_dir t.dir
       with Unix.Unix_error _ as e ->
         (try Unix.close fd' with Unix.Unix_error _ -> ());
         raise (fail_locked t e));
      Fault.hit "rotate.after_create";
      Unix.close t.fd;
      t.sealed <- t.sealed @ [ (t.seg_id, t.seg_bytes) ];
      t.fd <- fd';
      t.seg_id <- next;
      t.seg_bytes <- 0;
      t.n_rotations <- t.n_rotations + 1;
      List.map (fun (id, _) -> segment_path t.dir id) t.sealed)

let retire t =
  check_open t "retire";
  locked t (fun () ->
      Fault.hit "checkpoint.before_retire";
      let n = ref 0 in
      (* oldest first, updating the sealed list after every deletion, so a
         crash (or a failing [remove]) leaves the handle agreeing with the
         directory about what is left *)
      while t.sealed <> [] do
        let (id, _), rest = (List.hd t.sealed, List.tl t.sealed) in
        (try Sys.remove (segment_path t.dir id)
         with Sys_error _ when not (Sys.file_exists (segment_path t.dir id)) -> ());
        t.sealed <- rest;
        incr n;
        Fault.hit "checkpoint.mid_retire"
      done;
      fsync_dir t.dir;
      !n)

let close t =
  if not t.closed then
    Fun.protect
      ~finally:(fun () ->
          t.closed <- true;
          try Unix.close t.fd with Unix.Unix_error _ -> ())
      (fun () ->
         (* drain first — a pending group-commit batch silently dying with
            the handle would lose acknowledged work on weaker policies and
            submitted-but-unwaited records on all of them — and let I/O
            errors out: the caller must learn that a "clean" close wasn't.
            The flush protocol releases [m] around its I/O, so on failure
            the mutex may or may not be held by this thread; release it
            only if it is before surfacing the error. *)
         Mutex.lock t.m;
         (match if buffered t then drain_locked t with
          | () -> Mutex.unlock t.m
          | exception e ->
            (try Mutex.unlock t.m with Sys_error _ -> ());
            raise e);
         Unix.fsync t.fd)

(* --- recovery --- *)

type replay_result = {
  records : string list;
  good_bytes : int;
  torn_bytes : int;
  live_segments : int;
}

let replay_segment ?(repair = true) path =
  if not (Sys.file_exists path) then
    { records = []; good_bytes = 0; torn_bytes = 0; live_segments = 0 }
  else begin
    let ic = open_in_bin path in
    let result =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
           let total = in_channel_length ic in
           match if total = 0 then `Torn else header_state ic total with
           | `Older -> raise (older_format (Filename.basename path))
           | `Torn -> { records = []; good_bytes = 0; torn_bytes = total; live_segments = 1 }
           | `Headed ->
             let records = ref [] in
             let good = ref segment_header_len in
             let torn = ref false in
             (* accept records until the frame breaks: a header that does not
                fit, a length past the end of file, or a CRC mismatch all
                mean the same thing — the tail after the last good record is
                torn *)
             while (not !torn) && !good < total do
               let remaining = total - !good in
               if remaining < header_len then torn := true
               else begin
                 let head = really_input_string ic header_len in
                 let len = read_le32 head 0 in
                 let crc = read_le32 head 4 in
                 if len < 0 || len > remaining - header_len then torn := true
                 else begin
                   let payload = really_input_string ic len in
                   let actual =
                     Int32.to_int (Crc32.update (Crc32.update_sub 0l head 0 4) payload)
                     land 0xffffffff
                   in
                   if actual <> crc then torn := true
                   else begin
                     records := payload :: !records;
                     good := !good + header_len + len
                   end
                 end
               end
             done;
             { records = List.rev !records;
               good_bytes = !good;
               torn_bytes = total - !good;
               live_segments = 1 })
    in
    if repair && result.torn_bytes > 0 then begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
           Unix.ftruncate fd result.good_bytes;
           Unix.fsync fd)
    end;
    result
  end

let replay ?(repair = true) dir =
  check_not_file ~op:"replay" dir;
  if not (Sys.file_exists dir) then
    { records = []; good_bytes = 0; torn_bytes = 0; live_segments = 0 }
  else begin
    let segs = list_segments dir in
    let nsegs = List.length segs in
    let acc_records = ref [] and acc_good = ref 0 and acc_torn = ref 0 in
    List.iteri
      (fun i id ->
         let path = segment_path dir id in
         let r = replay_segment ~repair:(repair && i = nsegs - 1) path in
         (* only the last segment was ever mid-write: a short or CRC-failing
            frame there is a torn tail to forgive (and, with [repair],
            truncate in place); the same damage in a sealed segment is bit
            rot — it was fully written and fsynced before rotation, so
            nothing after it can be trusted and silently dropping it would
            break the chain *)
         if i < nsegs - 1 && r.torn_bytes > 0 then
           raise
             (Corrupt
                (Printf.sprintf "wal: sealed segment %s is damaged (%d bad bytes)"
                   (segment_name id) r.torn_bytes));
         acc_records := List.rev_append r.records !acc_records;
         acc_good := !acc_good + r.good_bytes;
         acc_torn := !acc_torn + r.torn_bytes)
      segs;
    { records = List.rev !acc_records;
      good_bytes = !acc_good;
      torn_bytes = !acc_torn;
      live_segments = nsegs }
  end
