(* What the benchmark legs share: options, the row printer, gate failures
   and the harnesses and checks more than one leg runs. *)

open Spitz_workload
module J = Spitz.Json
module Db = Spitz.Db

let scale = ref 4
let ops = ref 10_000
let out_file = ref "BENCH_results.json"
let gate = ref false
let deadline = ref 60.
let fuzz_seed = ref 0
let exit_code = ref 0

let pr fmt = Printf.printf fmt

(* A gate failure: printed, and the run exits 1 once every leg is done. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
       pr "FAIL: %s\n%!" msg;
       exit_code := 1)
    fmt

(* This run's JSON sections, merged into --out once at exit. *)
let results : (string * J.t) list ref = ref []

let add_result key v = results := (key, v) :: !results

(* The sections of the results file at --out, as the last run left it. *)
let read_results () =
  match In_channel.with_open_bin !out_file In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
    match J.of_string text with
    | J.Obj sections -> sections
    | _ | (exception J.Parse_error _) -> [])

(* ---------- rows: printed and emitted from one list ---------- *)

(* A row is its (JSON key, value) pairs in column order. The printers show
   it and return it as the JSON object the results file keeps. *)
type row = (string * J.t) list

let int n = J.Num (float_of_int n)
let num x = J.Num x
let bool b = J.Bool b
let kops thr = J.Num (Runner.kops thr)

let title fmt = Printf.ksprintf (fun s -> pr "\n== %s ==\n%!" s) fmt

let cell = function
  | J.Num x when Float.is_integer x && Float.abs x < 1e15 -> Printf.sprintf "%.0f" x
  | J.Num x ->
    let ax = Float.abs x in
    Printf.sprintf "%.*f" (if ax >= 100. then 1 else if ax >= 1. then 2 else 4) x
  | J.Bool b -> if b then "yes" else "NO"
  | J.Str s -> s
  | J.Null | J.Arr _ | J.Obj _ -> "-"

(* A table printer: [emit ?label row] prints the row, under a fresh header
   line whenever its columns differ from the previous row's, and returns
   it as a JSON object. [label] is a leading, print-only column: the name
   the row is filed under in its section. *)
let table () =
  let columns = ref [] in
  fun ?label (row : row) ->
    let width (k, v) = max (match v with J.Str _ -> 16 | _ -> 9) (String.length k + 2) in
    let lead s = if label <> None then pr "%-24s" s in
    let keys = List.map fst row in
    if keys <> !columns then begin
      columns := keys;
      lead "";
      List.iter (fun c -> pr "%*s" (width c) (fst c)) row;
      pr "\n"
    end;
    lead (Option.value label ~default:"");
    List.iter (fun c -> pr "%*s" (width c) (cell (snd c))) row;
    pr "\n%!";
    J.Obj row

(* One object's fields, printed a pair to a line and returned. *)
let record (row : row) =
  List.iter (fun (k, v) -> pr "  %-32s%16s\n" k (cell v)) row;
  flush stdout;
  row

(* ---------- latency percentiles ---------- *)

(* q-th percentile (0 < q <= 1) of latencies, nearest-rank. *)
let percentile lats q =
  let sorted = Array.copy lats in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

(* The p50/p95/p99 columns of latencies in seconds, in [unit]s: e.g.
   [~unit:("ms", 1e3)] gives p50_ms, p95_ms, p99_ms. *)
let tail ~unit:(suffix, per_s) lats =
  List.map
    (fun (name, q) -> (name ^ "_" ^ suffix, num (percentile lats q *. per_s)))
    [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ]

let ms = ("ms", 1e3)
let us = ("us", 1e6)

(* ---------- databases ---------- *)

(* Keys 0..n-1 committed one put at a time; returns commits per second. *)
let fill db n =
  Runner.time_ops ~ops:n (fun i ->
      let k = Keygen.key_of i in
      ignore (Db.put db k (Keygen.value_of k)))

(* Keys 0..n-1 as put batches of [size] keys. *)
let batches ~size n =
  List.init ((n + size - 1) / size) (fun b ->
      List.init (min size (n - (b * size))) (fun j ->
          let k = Keygen.key_of ((b * size) + j) in
          (k, Keygen.value_of k)))

let temp_dir () =
  let path = Filename.temp_file "spitz_bench" ".dir" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A durable database in a fresh temporary directory, removed afterwards.
   [f dir d] may close [d] and reopen [dir]; [d] is closed if it is left
   open. *)
let with_durable ?sync f =
  let dir = temp_dir () in
  let d = Db.open_durable ?sync dir in
  Fun.protect
    ~finally:(fun () ->
        Db.close_durable d;
        rm_rf dir)
    (fun () -> f dir d)

(* Serial equivalence: the journal's committed order, replayed block by
   block (values regenerated from their keys, statements kept) into a
   fresh in-memory database, must reach a bit-identical digest —
   concurrency must not leak into commitments. *)
let replays_serially db =
  let ledger = Db.ledger db in
  let serial = Db.open_db () in
  for h = 0 to Db.L.height ledger - 1 do
    let block = Spitz_ledger.Journal.block (Db.L.journal ledger) h in
    ignore
      (Db.commit serial ~statements:block.Spitz_ledger.Block.statements
         (List.map
            (fun e ->
               let k = e.Spitz_ledger.Block.key in
               Spitz_ledger.Ledger.Put (k, Keygen.value_of k))
            block.Spitz_ledger.Block.entries))
  done;
  Db.digest db = Db.digest serial

(* [n] committers of [per] single-key puts each on a fresh durable
   database; the row is [cells d throughput latency_columns], then the
   serial-replay and recovery columns: closing and reopening the directory
   must reproduce the digest and pass the full chain audit. The run fails
   unless both hold.

   Committers are systhreads, not domains: they model concurrent client
   sessions, which block on the commit lock and the fsync — both release
   the runtime lock, so the durability pipeline overlaps exactly as it
   would across processes — without dragging every measurement through the
   multi-domain GC barriers that dominate when committers outnumber cores
   (domain-parallel commit CPU is the [pipeline] figure's subject, and
   domain-racing correctness is covered by the test suite). *)
let committer_leg ~leg ~sync ?policy ~n ~per cells =
  (* start each leg from a clean major heap — leftover garbage from the
     previous leg's replay/recovery otherwise turns into multi-domain major
     slices mid-measurement *)
  Gc.full_major ();
  with_durable ~sync (fun dir d ->
      Option.iter (Db.set_checkpoint_policy d) policy;
      let db = Db.durable_db d in
      let lats = Array.make (n * per) 0. in
      let committer c () =
        for j = c * per to ((c + 1) * per) - 1 do
          let k = Keygen.key_of j in
          let t0 = Runner.now () in
          ignore (Db.put db k (Keygen.value_of k));
          lats.(j) <- Runner.now () -. t0
        done
      in
      let (), wall =
        Runner.time (fun () ->
            List.iter Thread.join (List.init n (fun c -> Thread.create (committer c) ())))
      in
      Db.set_checkpoint_policy d Db.Manual;
      let row = cells d (float_of_int (n * per) /. wall) (tail ~unit:ms lats) in
      let equal = replays_serially db in
      Db.close_durable d;
      let d' = Db.open_durable dir in
      let db' = Db.durable_db d' in
      let audit_ok = Db.digest db' = Db.digest db && Db.audit db' in
      Db.close_durable d';
      if not (equal && audit_ok) then
        fail "%s: serial replay %b, reopen audit %b" leg equal audit_ok;
      row
      @ [ ("digest_equals_serial_replay", bool equal); ("recovered_audit_ok", bool audit_ok) ])

let ratio a b = if b > 0. then a /. b else 0.

(* ---------- decoded-node cache counters ---------- *)

module NC = Spitz_storage.Node_cache

let hit_rate (s : NC.stats) =
  let total = s.NC.hits + s.NC.misses in
  if total = 0 then 0. else float_of_int s.NC.hits /. float_of_int total

(* The module-level caches are shared by all stores; their counters are
   zeroed at the start of each command so the report is attributable to the
   commands of this run rather than to everything since process start. *)
let reset_cache_stats () =
  NC.reset_stats Spitz_adt.Kv_node.cache;
  Spitz_adt.Mpt.reset_cache_stats ();
  Spitz_adt.Mbt.reset_cache_stats ();
  Db.reset_proof_cache_stats ()

let cache_report () =
  title "Decoded-node cache counters (since last command start)";
  let stats =
    [
      ("kv-node", NC.stats Spitz_adt.Kv_node.cache);
      ("mpt", Spitz_adt.Mpt.cache_stats ());
      ("mbt", Spitz_adt.Mbt.cache_stats ());
      ("proof", Db.proof_cache_stats ());
    ]
  in
  let emit = table () in
  let rows =
    List.map
      (fun (name, (s : NC.stats)) ->
         ( name,
           emit ~label:name
             [
               ("hits", int s.NC.hits);
               ("misses", int s.NC.misses);
               ("evictions", int s.NC.evictions);
               ("hit_rate", num (hit_rate s));
             ] ))
      stats
  in
  (* the kv-node cache's size shows whether it holds live nodes only *)
  let entries = NC.length Spitz_adt.Kv_node.cache in
  pr "kv-node cache entries: %d\n" entries;
  (* a command that touched no cache keeps the results file's earlier section *)
  if List.exists (fun (_, s) -> s.NC.hits + s.NC.misses > 0) stats then
    add_result "node_cache" (J.Obj (rows @ [ ("kv_node_entries", int entries) ]))
