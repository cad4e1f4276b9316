(* The served-path benchmark: seeded closed-loop traffic from verifying
   sessions against a `spitz serve` child over loopback, every answer
   checked against the client's model. See perfbench/README.md.

   spitzbench --workload W --seed N --seconds S --trace 0|1 --cli EXE --work DIR

   The last line of standard output is one JSON object: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
   Exit code 1 means a correctness or durability gate failed. *)

module Db = Spitz.Db
module Session = Spitz_server.Session
module Frame = Spitz_server.Frame
module Server = Spitz_server.Server
module Ipc = Spitz_nonintrusive.Ipc
module Journal = Spitz_ledger.Journal
module Node_cache = Spitz_storage.Node_cache
module Object_store = Spitz_storage.Object_store
module Keygen = Spitz_workload.Keygen
module W = Workload

type workload = Verified_read | Durable_commit | Mixed

let workload_names =
  [ ("verified-read", Verified_read); ("durable-commit", Durable_commit); ("mixed", Mixed) ]

(* Fixed-phase sizes, per set-up. Every workload reports every end-to-end
   metric; an operation its timed mix lacks is measured in the fixed phase.
   Each set-up runs a third of it, so its samples come from three windows
   spread over the run rather than one stretch of host time. *)
let fixed_commits = 384
let fixed_reads = 768
let fixed_ranges = 96
let setups = 3
let restarts_per_setup = 3
let durability_sample = 256
let mixed_sync_every = 16

(* The mixed writer offers commits at a fixed rate, 125/s, about a third of
   what one closed-loop writer reaches. A closed-loop writer keeps the
   single server domain busy except during fsyncs, so the reads that slip
   in between depend on fsync jitter and the median read flips between a
   fast and a blocked mode from run to run. *)
let mixed_commit_period = 0.008

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* --- samples --- *)

type samples = { mutable a : float array; mutable n : int }

let samples () = { a = Array.make 1024 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

(* Nearest-rank quantile. *)
let quantile s q =
  if s.n = 0 then nan
  else begin
    let b = Array.sub s.a 0 s.n in
    Array.sort compare b;
    b.(max 0 (min (s.n - 1) (int_of_float (Float.ceil (q *. float_of_int s.n)) - 1)))
  end

let median s = quantile s 0.5

(* --- failures --- *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let fail what =
  Atomic.incr failed;
  if Atomic.get failed <= 10 then Printf.eprintf "FAIL: %s\n%!" what

let check ok what = if not ok then fail what

(* Run one checked operation; any exception counts as a failed operation. *)
let guard what f =
  Atomic.incr attempted;
  try f () with
  | Session.Verification_failed m -> fail (what ^ ": verification failed: " ^ m)
  | e -> fail (what ^ ": " ^ Printexc.to_string e)

(* --- host drift: SHA-256 over a fixed buffer --- *)

let sha256_mb_s () =
  let buf = String.make (1 lsl 20) 'x' in
  let s = samples () in
  for _ = 1 to 8 do
    let t0 = now () in
    ignore (Spitz_crypto.Sha256.digest_string buf);
    add s (1.0 /. (now () -. t0))
  done;
  median s

(* --- operations through a verifying session --- *)

type state = {
  seed : int;
  cli : string;
  dir : string;
  model : W.model;
  mutable next_height : int;  (* the single writer's next block height *)
  acked : (int, int) Hashtbl.t; (* key index -> height of its last acked write *)
}

let read_op st s i lat =
  guard "verified read" @@ fun () ->
  let t0 = now () in
  let v = Session.get_verified s (W.key i) in
  add lat (now () -. t0);
  let height = Option.get (Session.pin_height s) in
  check (v = W.value_at st.model ~height i) (Printf.sprintf "read %s at %d" (W.key i) height)

let range_op st s start lat =
  guard "verified range" @@ fun () ->
  let lo, hi = W.range_bounds start in
  let t0 = now () in
  let entries = Session.range_verified s ~lo ~hi in
  add lat (now () -. t0);
  let height = Option.get (Session.pin_height s) in
  check (entries = W.range_at st.model ~height start)
    (Printf.sprintf "range from %s at %d" lo height)

(* Session.put_batch's two steps — an idempotent Apply, then the
   consistency-proof sync — with a fixed-width token of our own. *)
let commit_op st s rng lat =
  guard "commit" @@ fun () ->
  let keys = W.distinct_keys rng W.commit_batch in
  let height = st.next_height in
  st.next_height <- height + 1;
  let puts = W.record st.model ~height keys in
  let t0 = now () in
  let h = Session.apply s ~token:(W.token height) ~puts ~deletes:[] in
  Session.sync s;
  add lat (now () -. t0);
  check (h = height) (Printf.sprintf "commit acked at %d, expected %d" h height);
  List.iter (fun i -> Hashtbl.replace st.acked i height) keys

(* --- set-up: load through the server, restart, first verified read --- *)

let fresh_dir dir =
  Child.rm_rf dir;
  Unix.mkdir dir 0o755

let load st port =
  let s = Session.connect ~port () in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  let order = W.shuffled_keys (W.stream ~seed:st.seed 1) in
  for b = 0 to (W.n_keys / W.load_batch) - 1 do
    guard "load" @@ fun () ->
    let keys = Array.to_list (Array.sub order (b * W.load_batch) W.load_batch) in
    let height = st.next_height in
    st.next_height <- height + 1;
    let puts = W.record st.model ~height keys in
    let h = Session.apply s ~token:(W.token height) ~puts ~deletes:[] in
    check (h = height) "load batch height"
  done

let first_read st port =
  let s = Session.connect ~port () in
  let i = Keygen.int (W.stream ~seed:st.seed 2) W.n_keys in
  read_op st s i (samples ());
  s

(* Restart the server on the set-up's directory and make the first verified
   read: the live child, its session and the seconds it took. *)
let restart st =
  let t0 = now () in
  let c = Child.spawn ~cli:st.cli st.dir in
  let s = first_read st c.Child.port in
  (c, s, now () -. t0)

(* Load a fresh directory, stop, restart, read: set-up time. Reads change
   nothing on disk, so further restarts recover the same state and give
   more recovery samples. Returns the live child with a synced session. *)
let setup ?(restarts = 1) ~seed ~cli ~dir () =
  fresh_dir dir;
  let st = { seed; cli; dir; model = W.model (); next_height = 0; acked = Hashtbl.create 4096 } in
  let t0 = now () in
  let c = Child.spawn ~cli dir in
  load st c.Child.port;
  Child.stop c;
  let c, s, r = restart st in
  let setup_s = now () -. t0 in
  let rec more (c, s, rs) k =
    if k = restarts then (st, c, s, setup_s, List.rev rs)
    else begin
      Session.close s;
      Child.stop c;
      let c, s, r = restart st in
      more (c, s, r :: rs) (k + 1)
    end
  in
  more (c, s, [ r ]) 1

(* --- the phases of an end-to-end run --- *)

type phase = {
  reads : samples;
  ranges : samples;
  commits : samples;
  mutable read_s : float;    (* wall time spent on the reads and ranges *)
  mutable commit_s : float;  (* wall time spent on the commits *)
}

let phase () =
  { reads = samples (); ranges = samples (); commits = samples (); read_s = 0.0; commit_s = 0.0 }

let timed f = let t0 = now () in f (); now () -. t0

(* Deterministic: fixed counts of every operation type on uniform keys, in
   a seeded interleaving, so each type's samples span the whole phase.
   Samples accumulate into [p]. *)
let fixed_phase st s p =
  let rng = W.stream ~seed:st.seed 3 in
  let ops =
    W.shuffle rng
      (Array.concat
         [ Array.make fixed_commits `Commit; Array.make fixed_reads `Read;
           Array.make fixed_ranges `Range ])
  in
  Array.iter
    (function
      | `Commit -> p.commit_s <- p.commit_s +. timed (fun () -> commit_op st s rng p.commits)
      | `Read ->
        p.read_s <- p.read_s +. timed (fun () -> read_op st s (Keygen.int rng W.n_keys) p.reads)
      | `Range ->
        p.read_s <-
          p.read_s
          +. timed (fun () ->
                 range_op st s (Keygen.int rng (W.n_keys - W.range_len + 1)) p.ranges))
    ops

let read_dist = function
  | Verified_read -> W.Hot (W.zipf W.n_keys W.zipf_theta)
  | Durable_commit | Mixed -> W.Uniform

let timed_phase wl st s port seconds =
  let p = phase () in
  let deadline = now () +. float_of_int seconds in
  let reader () =
    let rng = W.stream ~seed:st.seed 4 in
    let dist = read_dist wl in
    let n = ref 0 in
    p.read_s <-
      timed (fun () ->
          while now () < deadline do
            let i = W.pick ~seed:st.seed dist rng in
            (match wl with
             | Verified_read when Keygen.int rng 8 = 0 ->
               range_op st s (min i (W.n_keys - W.range_len)) p.ranges
             | _ -> read_op st s i p.reads);
            incr n;
            if wl = Mixed && !n mod mixed_sync_every = 0 then
              guard "sync" (fun () -> Session.sync s)
          done)
  in
  let writer ?period s =
    let rng = W.stream ~seed:st.seed 5 in
    let start = now () and late = ref 0 in
    p.commit_s <-
      timed (fun () ->
          let k = ref 0 in
          while now () < deadline do
            (match period with
             | Some dt ->
               let wait = start +. (float_of_int !k *. dt) -. now () in
               if wait > 0.0 then Unix.sleepf wait else incr late
             | None -> ());
            incr k;
            if now () < deadline then commit_op st s rng p.commits
          done);
    if period <> None then Printf.printf "writer: %d of %d commits sent late\n" !late p.commits.n
  in
  (match wl with
   | Verified_read -> reader ()
   | Durable_commit -> writer s
   | Mixed ->
     let w =
       Domain.spawn (fun () ->
           let ws = Session.connect ~port () in
           Fun.protect ~finally:(fun () -> Session.close ws) (fun () ->
               writer ~period:mixed_commit_period ws))
     in
     reader ();
     Domain.join w);
  p

(* After the run the session's pin must equal the server's digest, and the
   server must hold exactly the blocks the client committed. *)
let digest_gate st s port =
  guard "final digest" @@ fun () ->
  Session.sync s;
  let fresh = Session.connect ~port () in
  Fun.protect ~finally:(fun () -> Session.close fresh) @@ fun () ->
  Session.sync fresh;
  match (Session.digest s, Session.digest fresh) with
  | Some a, Some b ->
    check (Spitz_crypto.Hash.equal a.Journal.root b.Journal.root && a.size = b.size)
      "client pin differs from the server digest";
    check (b.size = st.next_height)
      (Printf.sprintf "server holds %d blocks, client committed %d" b.size st.next_height)
  | _ -> fail "no digest"

(* SIGKILL the child, restart it on the same directory, and verified-read a
   seeded sample of acknowledged writes: a lost ack fails the run. *)
let durability_gate st c =
  let c = (Child.kill c; Child.spawn ~cli:st.cli st.dir) in
  Fun.protect ~finally:(fun () -> Child.stop c) @@ fun () ->
  let s = Session.connect ~port:c.Child.port () in
  Fun.protect ~finally:(fun () -> Session.close s) @@ fun () ->
  guard "restart digest" (fun () ->
      Session.sync s;
      let size = (Option.get (Session.digest s)).Journal.size in
      check (size = st.next_height)
        (Printf.sprintf "restart holds %d blocks, %d were acknowledged" size st.next_height));
  let keys = Hashtbl.fold (fun i _ acc -> i :: acc) st.acked [] |> List.sort compare |> Array.of_list in
  let rng = W.stream ~seed:st.seed 6 in
  for _ = 1 to min durability_sample (Array.length keys) do
    let i = keys.(Keygen.int rng (Array.length keys)) in
    read_op st s i (samples ())
  done

(* --- output --- *)

let metric buf name unit value =
  Printf.printf "metric %-34s %14.6f %s\n" name value unit;
  Buffer.add_string buf
    (Printf.sprintf "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
       (if Buffer.length buf = 0 then "" else ", ") name value unit)

let result metrics =
  let a = Atomic.get attempted and f = Atomic.get failed in
  Printf.printf "failed_op_ratio %.6f (%d of %d operations)\n" (float_of_int f /. float_of_int (max 1 a)) f a;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (f = 0) (max 1 a) f (Buffer.contents metrics);
  exit (if f = 0 then 0 else 1)

let ms s = 1000.0 *. s
let us s = 1e6 *. s

let end_to_end wl ~seed ~seconds ~cli ~dir =
  let sha_before = sha256_mb_s () in
  (* every set-up starts from a fresh directory and runs the fixed phase;
   the last one stays live *)
  let setup_s = samples () and recover_s = samples () and fixed = phase () in
  let rec setups_from k =
    let ((st, c, s, t, rs) as live) = setup ~restarts:restarts_per_setup ~seed ~cli ~dir () in
    add setup_s t;
    List.iter (add recover_s) rs;
    Printf.printf "setup %d: %.3f s, recoveries %s s\n" k t
      (String.concat " " (List.map (Printf.sprintf "%.3f") rs));
    fixed_phase st s fixed;
    if k = setups then live
    else begin
      Session.close s;
      Child.stop c;
      setups_from (k + 1)
    end
  in
  let st, c, s, _, _ = setups_from 1 in
  let port = c.Child.port in
  let store_ratio = float_of_int (Child.dir_bytes dir) /. float_of_int st.model.W.user_bytes in
  (* after the fixed phase, the server's work depends only on the seed; at
     the end of a timed phase it would depend on how many operations fit *)
  let rss = Child.peak_rss_mb c in
  let timed = timed_phase wl st s port seconds in
  digest_gate st s port;
  Session.close s;
  (match wl with
   | Verified_read -> Child.stop c
   | Durable_commit | Mixed -> durability_gate st c);
  let sha_after = sha256_mb_s () in
  Printf.printf "crypto.sha256_mb_s before=%.1f after=%.1f\n" sha_before sha_after;
  let reads, ranges, read_s =
    if wl = Durable_commit then (fixed.reads, fixed.ranges, fixed.read_s)
    else (timed.reads, (if wl = Verified_read then timed.ranges else fixed.ranges), timed.read_s)
  in
  let read_count = if wl = Mixed then reads.n else reads.n + ranges.n in
  let commits, commit_s =
    if wl = Verified_read then (fixed.commits, fixed.commit_s) else (timed.commits, timed.commit_s)
  in
  List.iter
    (fun (what, x) ->
      Printf.printf "%s: n=%d p50=%.3f p90=%.3f p95=%.3f p99=%.3f ms\n" what x.n
        (ms (median x)) (ms (quantile x 0.9)) (ms (quantile x 0.95)) (ms (quantile x 0.99)))
    [ ("reads", reads); ("ranges", ranges); ("commits", commits) ];
  Printf.printf "throughput: %.1f reads/s, %.1f committed keys/s\n"
    (float_of_int read_count /. read_s) (float_of_int (commits.n * W.commit_batch) /. commit_s);
  let m = Buffer.create 512 in
  metric m "setup_s" "s" (median setup_s);
  metric m "recover_s" "s" (median recover_s);
  metric m "read_p50_ms" "ms" (ms (median reads));
  metric m "range_p50_ms" "ms" (ms (median ranges));
  metric m "commit_p50_ms" "ms" (ms (median commits));
  metric m "store_bytes_per_user_byte" "ratio" store_ratio;
  metric m "server_rss_mb" "MiB" rss;
  m

(* --- the traced run: per-layer numbers, timed around each layer's calls --- *)

let connect_raw port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let rpc scratch fd payload =
  Frame.write_slices ~scratch fd [ Spitz_storage.Slice.of_string payload ];
  Frame.read ~scratch fd

type spans = {
  codec : samples;        (* the four Ipc encode/decode calls per read *)
  rpc_per_read : samples;
  resp_read : samples;    (* response bytes *)
  resp_range : samples;
  proof_bytes : samples;
  verify_read : samples;
  verify_range : samples;
  vsync : samples;
  read_sum : samples;     (* per op: sum of its layer spans *)
  read_wall : samples;    (* per op: traced wall time *)
  commit_sum : samples;
}

(* Session.get_verified's steps, each timed: encode, frame round trip,
   decode, proof decode, proof check. The server-side codec half is timed
   on the same messages for ipc.codec_us_per_read. *)
let traced_read st sp scratch fd (d : Journal.digest) i =
  guard "traced read" @@ fun () ->
  let key = W.key i in
  let t0 = now () in
  let req = Ipc.encode_request (Ipc.SnapGet (d.size - 1, key)) in
  let t1 = now () in
  let payload = rpc scratch fd req in
  let t2 = now () in
  let resp = Ipc.decode_response payload in
  let t3 = now () in
  match resp with
  | Ipc.ValueProof (value, Some p) ->
    let proof = Db.L.decode_read_proof p in
    let t4 = now () in
    let ok = Db.verify_read ~digest:d ~key ~value proof in
    let t5 = now () in
    let server_codec =
      timed (fun () -> ignore (Ipc.decode_request req); ignore (Ipc.encode_response resp))
    in
    add sp.codec (t1 -. t0 +. (t3 -. t2) +. server_codec);
    add sp.verify_read (t5 -. t4);
    add sp.resp_read (float_of_int (String.length payload));
    add sp.proof_bytes (float_of_int (String.length p));
    (* the layer spans tile [t0, t5]; the wall time adds the tracing work *)
    add sp.read_sum (t5 -. t0);
    add sp.read_wall (now () -. t0);
    check ok ("traced read proof " ^ key);
    check (value = W.value_at st.model ~height:(d.size - 1) i) ("traced read value " ^ key)
  | _ -> fail "traced read: unexpected response"

let traced_range st sp scratch fd (d : Journal.digest) start =
  guard "traced range" @@ fun () ->
  let lo, hi = W.range_bounds start in
  let payload = rpc scratch fd (Ipc.encode_request (Ipc.SnapRange (d.size - 1, lo, hi))) in
  match Ipc.decode_response payload with
  | Ipc.EntriesProof (entries, Some p) ->
    let proof = Db.L.decode_read_proof p in
    let t0 = now () in
    let ok = Db.verify_range ~digest:d ~lo ~hi ~entries proof in
    add sp.verify_range (now () -. t0);
    add sp.resp_range (float_of_int (String.length payload));
    check (ok && entries = W.range_at st.model ~height:(d.size - 1) start) "traced range"
  | _ -> fail "traced range: unexpected response"

(* Session.put_batch's steps: the Apply and Anchor round trips (codec and
   server, one span), then the client verifier's consistency check. *)
let traced_commit st sp scratch fd verifier rng =
  guard "traced commit" @@ fun () ->
  let keys = W.distinct_keys rng W.commit_batch in
  let height = st.next_height in
  st.next_height <- height + 1;
  let puts = W.record st.model ~height keys in
  let known = (Option.get (Db.V.digest verifier)).Journal.size in
  let t0 = now () in
  let apply = Ipc.encode_request (Ipc.Apply { token = W.token height; puts; deletes = [] }) in
  let r1 = Ipc.decode_response (rpc scratch fd apply) in
  let r2 = Ipc.decode_response (rpc scratch fd (Ipc.encode_request (Ipc.Anchor known))) in
  let t1 = now () in
  match (r1, r2) with
  | Ipc.Committed h, Ipc.AnchorResp { Ipc.root; size; consistency } ->
    let ok = Db.V.sync verifier ~digest:{ Journal.root; size } ~consistency in
    let t2 = now () in
    add sp.vsync (t2 -. t1);
    add sp.commit_sum (t2 -. t0);
    check (ok && h = height && size = height + 1) "traced commit"
  | _ -> fail "traced commit: unexpected response"

let n_trace_reads = 2000
let n_trace_ranges = 256
let n_trace_commits = 256

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let cache_rate (before : Node_cache.stats) (after : Node_cache.stats) =
  ratio (after.hits - before.hits) (after.hits - before.hits + after.misses - before.misses)

(* the policy `spitz serve --sync group` opens its database with *)
let group = Spitz_storage.Wal.Group { max_batch = 64; max_delay_us = 200 }

let traced wl ~seed ~cli ~dir =
  let sha_before = sha256_mb_s () in
  let st, c, s, _, _ = setup ~seed ~cli ~dir () in
  let port = c.Child.port in
  let dist = read_dist wl in
  let rng = W.stream ~seed 7 in
  let draw () = W.pick ~seed dist rng in
  let base_read = samples () and base_commit = samples () in
  let sp =
    {
      codec = samples (); rpc_per_read = samples (); resp_read = samples ();
      resp_range = samples (); proof_bytes = samples (); verify_read = samples ();
      verify_range = samples (); vsync = samples (); read_sum = samples ();
      read_wall = samples (); commit_sum = samples ();
    }
  in
  let fd = connect_raw port and scratch = Frame.scratch () in
  let d = Option.get (Session.digest s) in
  (* untraced Session operations interleaved with traced ones, so both see
     the same cache and store state *)
  for _ = 1 to n_trace_reads do
    read_op st s (draw ()) base_read;
    traced_read st sp scratch fd d (draw ())
  done;
  for _ = 1 to n_trace_ranges do
    traced_range st sp scratch fd d (min (draw ()) (W.n_keys - W.range_len))
  done;
  (* a raw frame round trip of one pre-encoded SnapGet *)
  let snap_get = Spitz_storage.Slice.of_string (Ipc.encode_request (Ipc.SnapGet (d.size - 1, W.key 0))) in
  for _ = 1 to n_trace_reads do
    let t0 = now () in
    Frame.write_slices ~scratch fd [ snap_get ];
    ignore (Frame.read ~scratch fd);
    add sp.rpc_per_read (now () -. t0)
  done;
  let wrng = W.stream ~seed 8 in
  let verifier = Db.V.create () in
  (match Ipc.decode_response (rpc scratch fd (Ipc.encode_request (Ipc.Anchor 0))) with
   | Ipc.AnchorResp { Ipc.root; size; consistency } ->
     check (Db.V.sync verifier ~digest:{ Journal.root; size } ~consistency) "verifier pin"
   | _ -> fail "anchor");
  for _ = 1 to n_trace_commits do
    commit_op st s wrng base_commit;
    traced_commit st sp scratch fd verifier wrng
  done;
  Unix.close fd;
  Session.close s;
  Child.stop c;
  (* in-process: the same directory opened directly, each layer's public
     functions timed *)
  let node0 = Node_cache.stats Spitz_adt.Kv_node.cache in
  let t0 = now () in
  let dur = Db.open_durable ~sync:group dir in
  let open_s = now () -. t0 in
  let db = Db.durable_db dur in
  let t0 = now () in
  let server = Server.start ~config:{ Server.default_config with accept_domains = 1 } db in
  let start_s = now () -. t0 in
  Server.stop server;
  let pin_us = samples () and get_us = samples () and range_us = samples () in
  let commit_us = samples () and consistency_us = samples () and fsync_us = samples () in
  let commit_in_process rng =
    guard "in-process commit" @@ fun () ->
    let keys = W.distinct_keys rng W.commit_batch in
    let height = st.next_height in
    st.next_height <- height + 1;
    let writes =
      List.map (fun (k, v) -> Spitz_ledger.Ledger.Put (k, v)) (W.record st.model ~height keys)
    in
    let t0 = now () in
    let h = Db.commit db ~statements:[ "tx:" ^ W.token height ] writes in
    add commit_us (now () -. t0);
    let t0 = now () in
    ignore (Db.consistency db ~old_size:h);
    add consistency_us (now () -. t0);
    check (h = height) "in-process commit height"
  in
  (* the workload's read stream: mixed re-pins past a fresh commit every
     [mixed_sync_every] reads, the others read at one pin *)
  let read_stream n ~measure =
    for j = 1 to n do
      if wl = Mixed && j mod mixed_sync_every = 0 then commit_in_process wrng;
      guard "in-process read" @@ fun () ->
      let height = st.next_height - 1 in
      let t0 = now () in
      let snap = Option.get (Db.snapshot ~height db) in
      let t1 = now () in
      let i = draw () in
      let v, proof = Db.Snapshot.get_verified snap (W.key i) in
      let t2 = now () in
      if measure then begin add pin_us (t1 -. t0); add get_us (t2 -. t1) end;
      check
        (Db.verify_read ~digest:(Db.Snapshot.digest snap) ~key:(W.key i) ~value:v proof
         && v = W.value_at st.model ~height i)
        "in-process read"
    done
  in
  read_stream n_trace_reads ~measure:false;
  let proof0 = Db.proof_cache_stats () in
  read_stream n_trace_reads ~measure:true;
  let proof1 = Db.proof_cache_stats () in
  for _ = 1 to n_trace_ranges do
    guard "in-process range" @@ fun () ->
    let height = st.next_height - 1 in
    let snap = Option.get (Db.snapshot ~height db) in
    let start = min (draw ()) (W.n_keys - W.range_len) in
    let lo, hi = W.range_bounds start in
    let t0 = now () in
    let entries, _ = Db.Snapshot.range_verified snap ~lo ~hi in
    add range_us (now () -. t0);
    check (entries = W.range_at st.model ~height start) "in-process range"
  done;
  let wal0 = Db.wal_stats dur and obj0 = Object_store.stats (Db.store db) in
  for _ = 1 to n_trace_commits do commit_in_process wrng done;
  let wal1 = Db.wal_stats dur and obj1 = Object_store.stats (Db.store db) in
  let node1 = Node_cache.stats Spitz_adt.Kv_node.cache in
  for _ = 1 to 100 do
    let t0 = now () in
    Db.sync_durable dur;
    add fsync_us (now () -. t0)
  done;
  Db.close_durable dur;
  (* set-up's core: the same seeded load as direct put_batch calls *)
  fresh_dir dir;
  let load_s =
    let dur = Db.open_durable ~sync:group dir in
    let db = Db.durable_db dur in
    let order = W.shuffled_keys (W.stream ~seed 1) in
    let lm = W.model () in
    let t = timed (fun () ->
        for b = 0 to (W.n_keys / W.load_batch) - 1 do
          let keys = Array.to_list (Array.sub order (b * W.load_batch) W.load_batch) in
          ignore (Db.put_batch db ~statements:[ "tx:" ^ W.token b ] (W.record lm ~height:b keys))
        done)
    in
    Db.close_durable dur;
    t
  in
  Child.rm_rf dir;
  let sha_after = sha256_mb_s () in
  Printf.printf "crypto.sha256_mb_s before=%.1f after=%.1f\n" sha_before sha_after;
  let m = Buffer.create 1024 in
  let commits = n_trace_commits in
  metric m "crypto.sha256_mb_s" "MB/s" ((sha_before +. sha_after) /. 2.0);
  metric m "ipc.codec_us_per_read" "us" (us (median sp.codec));
  metric m "ipc.response_bytes_per_read" "bytes" (median sp.resp_read);
  metric m "ipc.response_bytes_per_range" "bytes" (median sp.resp_range);
  metric m "server.rpc_us_per_read" "us" (us (median sp.rpc_per_read));
  metric m "server.start_s" "s" start_s;
  metric m "core.open_durable_s" "s" open_s;
  metric m "core.load_us_per_key" "us" (us load_s /. float_of_int W.n_keys);
  metric m "core.snapshot_pin_us" "us" (us (median pin_us));
  metric m "core.get_verified_us" "us" (us (median get_us));
  metric m "core.range_verified_us" "us" (us (median range_us));
  metric m "core.commit_us" "us" (us (median commit_us));
  metric m "core.consistency_us" "us" (us (median consistency_us));
  metric m "ledger.verify_read_us" "us" (us (median sp.verify_read));
  metric m "ledger.verify_range_us" "us" (us (median sp.verify_range));
  metric m "ledger.verifier_sync_us" "us" (us (median sp.vsync));
  metric m "ledger.read_proof_bytes" "bytes" (median sp.proof_bytes);
  metric m "ledger.proof_cache_hit_rate" "ratio" (cache_rate proof0 proof1);
  metric m "adt.node_cache_hit_rate" "ratio" (cache_rate node0 node1);
  metric m "storage.fsync_us" "us" (us (median fsync_us));
  metric m "storage.wal_records_per_fsync" "ratio"
    (ratio (wal1.records - wal0.records) (wal1.fsyncs - wal0.fsyncs));
  metric m "storage.wal_bytes_per_commit" "bytes"
    (ratio (wal1.disk_bytes + wal1.pending_bytes - wal0.disk_bytes - wal0.pending_bytes) commits);
  metric m "storage.object_bytes_per_key" "bytes"
    (ratio (obj1.physical_bytes - obj0.physical_bytes) (commits * W.commit_batch));
  metric m "storage.dedup_hit_rate" "ratio"
    (ratio (obj1.dedup_hits - obj0.dedup_hits) (obj1.puts - obj0.puts));
  metric m "trace.coverage_read" "ratio" (median sp.read_sum /. median base_read);
  metric m "trace.coverage_commit" "ratio" (median sp.commit_sum /. median base_commit);
  metric m "trace.overhead_ratio" "ratio" (median sp.read_wall /. median base_read);
  m

(* --- command line --- *)

let () =
  let wl = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let cli = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string wl, " verified-read | durable-commit | mixed");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer metrics)");
      ("--cli", Arg.Set_string cli, " path of the spitz CLI executable");
      ("--work", Arg.Set_string work, " scratch directory for the database");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "spitzbench --workload W --seed N --seconds S --trace 0|1 --cli EXE --work DIR";
  let wl =
    match List.assoc_opt !wl workload_names with
    | Some w -> w
    | None -> prerr_endline ("unknown workload " ^ !wl); exit 2
  in
  if !cli = "" || !work = "" || !seconds < 1 then (prerr_endline "missing --cli/--work"; exit 2);
  at_exit Child.kill_all;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat !work "db" in
  let metrics =
    Fun.protect ~finally:(fun () -> Child.kill_all (); Child.rm_rf dir) @@ fun () ->
    if !trace = 1 then traced wl ~seed:!seed ~cli:!cli ~dir
    else end_to_end wl ~seed:!seed ~seconds:!seconds ~cli:!cli ~dir
  in
  result metrics
