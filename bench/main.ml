(* Benchmark harness: the paper's evaluation (section 6), the ablations in
   DESIGN.md and the legs that gate the durable and served paths. [legs] is
   the list of commands; the usage text and [all] are derived from it. *)

open Spitz_workload
open Harness

type leg = { name : string; doc : string; run : unit -> unit; in_all : bool }

let leg ?(in_all = true) name doc run = { name; doc; run; in_all }

let legs =
  [
    leg "fig1" "storage vs #versions, with and without deduplication" Figures.fig1;
    leg "fig6a" "point reads, 5 systems" Figures.fig6a;
    leg "fig6b" "writes, 5 systems" Figures.fig6b;
    leg "fig7" "range queries at 0.1% selectivity" Figures.fig7;
    leg "fig8a" "non-intrusive design vs Spitz, reads" Figures.fig8a;
    leg "fig8b" "non-intrusive design vs Spitz, writes" Figures.fig8b;
    leg "siri" "SIRI-family ablation (POS-tree / MPT / MBT / Merkle B+)" Figures.siri;
    leg "verify" "batched verification: one-at-a-time vs one proof per batch"
      Figures.verify_bench;
    leg "verify-mode" "online vs deferred verification (section 5.3)" Figures.verify_mode;
    leg "cc" "conditional Apply under contention: conflict rate, no lost update (section 5.2)"
      Figures.cc;
    leg "durability" "WAL throughput per fsync policy, recovery; then group-commit, checkpoint"
      (fun () ->
        System.durability ();
        System.group_commit ();
        System.checkpoint ());
    leg ~in_all:false "group-commit" "committer sweep (1/2/4/8) per fsync policy"
      System.group_commit;
    leg ~in_all:false "checkpoint" "commit latency with background checkpoints vs none"
      System.checkpoint;
    leg "read-scale" "reader-domain sweep (1/2/4/8) over pinned snapshots" System.read_scale;
    leg "server" "TCP round trips over loopback, 1..8 connections" System.server;
    leg "codec" "buffer-layer allocations per op" System.codec;
    leg "bechamel" "Bechamel micro-benchmarks, one test per figure" Figures.bechamel;
    leg ~in_all:false "fuzz" "adversarial proof/WAL/frame fuzz" System.fuzz;
  ]

let options =
  Arg.align
    [
      ("--scale", Arg.Set_int scale,
       "N divide the paper's record counts by N (default 4; 1 = the full 10k..1.28M sweep)");
      ("--ops", Arg.Set_int ops, "N operations measured per data point (default 10000)");
      ("--out", Arg.Set_string out_file, "FILE results file (default BENCH_results.json)");
      ("--gate", Arg.Set gate,
       " codec: fail on a >25% words/op regression vs the baseline in --out");
      ("--deadline", Arg.Set_float deadline, "SECONDS fuzz: time budget (default 60)");
      ("--fuzz-seed", Arg.Set_int fuzz_seed, "N fuzz: master seed (0 = time-derived)");
    ]

let usage msg =
  let commands =
    List.map (fun l -> Printf.sprintf "  %-14s%s" l.name l.doc) legs
    @ [ Printf.sprintf "  %-14s%s" "all" "every command except group-commit, checkpoint (run by";
        Printf.sprintf "  %-14s%s" "" "durability) and fuzz (deadline-bound); the default" ]
  in
  pr "%s%s\n" msg
    (Arg.usage_string options
       ("usage: main.exe [COMMAND...] [OPTION...]\ncommands:\n" ^ String.concat "\n" commands
      ^ "\noptions:"));
  exit 1

(* ---------- results file ---------- *)

(* The results file keeps history: a run replaces only the sections it
   produced, and every section carries a stamp (under "stamps") saying
   which revision, machine and SHA-256 compressor produced it. *)

let first_line_of cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = In_channel.input_line ic in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> Option.map String.trim line
     | _ -> None)

(* HEAD, marked "-dirty" when the working tree differs from it *)
let git_rev () =
  match first_line_of "git rev-parse HEAD" with
  | None -> "unknown"
  | Some rev -> if Sys.command "git diff --quiet HEAD 2>/dev/null" = 0 then rev else rev ^ "-dirty"

let cpu_model () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
        match String.index_opt l ':' with
        | Some i when String.trim (String.sub l 0 i) = "model name" ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> None)
    |> Option.value ~default:"unknown"

(* [old] with the keys [fresh] also has replaced in place, then [fresh]'s
   new keys in order *)
let upsert old fresh =
  List.map (fun (k, v) -> (k, Option.value ~default:v (List.assoc_opt k fresh))) old
  @ List.filter (fun (k, _) -> not (List.mem_assoc k old)) fresh

let merge_results ~previous ~stamp =
  (* this run's sections, the last write of a repeated key winning *)
  let fresh =
    List.fold_left (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc) [] (List.rev !results)
    |> List.rev
  in
  let old_stamps =
    match List.assoc_opt "stamps" previous with Some (J.Obj s) -> s | _ -> []
  in
  (* "meta" was the single per-file stamp before sections had their own *)
  let sections = List.filter (fun (k, _) -> k <> "stamps" && k <> "meta") previous in
  J.Obj
    (upsert sections fresh
     @ [ ("stamps", J.Obj (upsert old_stamps (List.map (fun (k, _) -> (k, stamp)) fresh))) ])

(* ---------- driver ---------- *)

let () =
  (* A bigger minor heap for every domain: at the default 256k words the
     multi-domain legs (group-commit, read-scale) spend a large share of
     their time in stop-the-world minor collections — on a one-core box
     that syncs up to 8 threads per collection. 4M words (32 MB) per
     domain makes GC cost negligible at bench allocation rates without
     distorting any single-domain number. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4_194_304 };
  let cmds = ref [] in
  (match Arg.parse_argv Sys.argv options (fun c -> cmds := c :: !cmds) "" with
   | () -> ()
   | exception (Arg.Bad msg | Arg.Help msg) ->
     usage (List.hd (String.split_on_char '\n' msg) ^ "\n"));
  let cmds = match List.rev !cmds with [] -> [ "all" ] | l -> l in
  let to_run cmd =
    if cmd = "all" then List.filter (fun l -> l.in_all) legs
    else
      match List.find_opt (fun l -> l.name = cmd) legs with
      | Some l -> [ l ]
      | None -> usage (Printf.sprintf "unknown command %S\n" cmd)
  in
  let runs = List.map to_run cmds in
  pr "spitz benchmark harness (scale=%d => records %s; ops=%d)\n" !scale
    (String.concat "," (List.map string_of_int (Runner.record_counts ~scale:!scale ())))
    !ops;
  let (), wall =
    Runner.time (fun () ->
        List.iter
          (fun legs ->
             reset_cache_stats ();
             List.iter (fun l -> l.run ()) legs)
          runs)
  in
  cache_report ();
  let stamp =
    J.Obj
      [
        ("git_rev", J.Str (git_rev ()));
        ("cpu_model", J.Str (cpu_model ()));
        ("sha256", J.Str Spitz_crypto.Sha256.implementation);
        ("recommended_domains", int (Domain.recommended_domain_count ()));
        ("scale", int !scale);
        ("ops", int !ops);
        ("wall_seconds", num wall);
        ("commands", J.Arr (List.map (fun c -> J.Str c) cmds));
      ]
  in
  let merged = merge_results ~previous:(read_results ()) ~stamp in
  let oc = open_out !out_file in
  (* the committed file's layout, so a run's diff is only what it measured *)
  output_string oc (J.to_string_indented merged);
  output_string oc "\n";
  close_out oc;
  pr "\nmachine-readable results written to %s\n" !out_file;
  exit !exit_code
