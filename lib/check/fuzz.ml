module K = Spitz_workload.Keygen
module Wire = Spitz_storage.Wire
module Ledger = Spitz_ledger.Ledger

type outcome =
  | Rejected_decode
  | Rejected_verify
  | Benign
  | Accepted of string
  | Foreign of string

type report = {
  total : int;
  rejected_decode : int;
  rejected_verify : int;
  benign : int;
  accepted : (string * string) list;
  foreign : (string * string) list;
}

let empty_report =
  { total = 0; rejected_decode = 0; rejected_verify = 0; benign = 0; accepted = []; foreign = [] }

let merge a b =
  {
    total = a.total + b.total;
    rejected_decode = a.rejected_decode + b.rejected_decode;
    rejected_verify = a.rejected_verify + b.rejected_verify;
    benign = a.benign + b.benign;
    accepted = a.accepted @ b.accepted;
    foreign = a.foreign @ b.foreign;
  }

let ok r = r.accepted = [] && r.foreign = []

let pp_report r =
  let anomalies name = function
    | [] -> ""
    | l ->
      Printf.sprintf "\n  %s:\n%s" name
        (String.concat "\n"
           (List.map (fun (t, d) -> Printf.sprintf "    [%s] %s" t d) l))
  in
  Printf.sprintf
    "%d mutants: %d rejected at decode, %d rejected at verify, %d benign, %d accepted, %d foreign%s%s"
    r.total r.rejected_decode r.rejected_verify r.benign (List.length r.accepted)
    (List.length r.foreign)
    (anomalies "ACCEPTED (soundness violations)" r.accepted)
    (anomalies "FOREIGN EXCEPTIONS" r.foreign)

type target = {
  tname : string;
  encoded : string;
  classify : string -> outcome;
}

(* The generic verifier contract. [normalize] re-encodes a decoded artifact
   with advisory fields (embedded digest copies the verifier ignores)
   canonicalized, so a mutant that verifies is a bug only if it differs from
   the honest artifact where it matters. *)
let classify_with ~decode ~verify ~normalize ~honest data =
  match decode data with
  | exception Wire.Malformed _ -> Rejected_decode
  | exception e -> Foreign ("decode raised " ^ Printexc.to_string e)
  | p -> (
    match verify p with
    | exception e -> Foreign ("verify raised " ^ Printexc.to_string e)
    | false -> Rejected_verify
    | true ->
      if String.equal (normalize p) (normalize honest) then Benign
      else Accepted ("different artifact verified: " ^ Spitz_crypto.Hash.hex_of_string data))

let fuzz_target rng ~mutants target =
  let r = ref empty_report in
  for _ = 1 to mutants do
    let mutant = Mutate.random rng target.encoded in
    let acc = !r in
    r :=
      (match target.classify mutant with
       | Rejected_decode -> { acc with total = acc.total + 1; rejected_decode = acc.rejected_decode + 1 }
       | Rejected_verify -> { acc with total = acc.total + 1; rejected_verify = acc.rejected_verify + 1 }
       | Benign -> { acc with total = acc.total + 1; benign = acc.benign + 1 }
       | Accepted d ->
         { acc with total = acc.total + 1; accepted = (target.tname, d) :: acc.accepted }
       | Foreign d ->
         { acc with total = acc.total + 1; foreign = (target.tname, d) :: acc.foreign })
  done;
  !r

(* --- proof targets, per SIRI implementation --- *)

module MakeTargets (S : Spitz_adt.Siri.S) = struct
  module L = Ledger.Make (S)

  (* A small committed history with overwrites, deletes, and multiple
     blocks — enough structure that every proof kind is non-trivial. *)
  let build ~seed =
    let rng = K.rng (seed lxor 0x5A17) in
    let store = Spitz_storage.Object_store.create () in
    let l = L.create store in
    for _ = 1 to 5 do
      let writes =
        List.init
          (4 + K.int rng 5)
          (fun _ ->
             let k = K.key_of (K.int rng 24) in
             if K.int rng 10 = 0 then Ledger.Delete k
             else Ledger.Put (k, K.value_of ~version:(K.next rng land 0xFFFF) k))
      in
      ignore (L.commit l writes)
    done;
    l

  let present_key l rng =
    let head = Option.get (L.snapshot l) in
    let rec go n =
      if n > 200 then K.key_of 0
      else
        let k = K.key_of (K.int rng 24) in
        if L.snap_get head k <> None then k else go (n + 1)
    in
    go 0

  let targets ~seed =
    let rng = K.rng (seed lxor 0xF3A9) in
    let l = build ~seed in
    let digest = L.digest l in
    let kp = present_key l rng in
    let ka = K.key_of 1000 (* outside the touched keyspace *) in
    (* Advisory digest copies are canonicalized (verifiers pin their own),
       and index node lists compare as sets: every verifier folds them into
       a hash -> bytes map, so order and multiplicity are not load-bearing. *)
    let canon_index (q : Spitz_adt.Siri.proof) =
      { Spitz_adt.Siri.nodes = List.sort_uniq String.compare q.Spitz_adt.Siri.nodes }
    in
    let norm_read (p : L.read_proof) honest_digest =
      L.encode_read_proof
        { p with L.rp_digest = honest_digest; L.rp_index = canon_index p.L.rp_index }
    in
    let head = Option.get (L.snapshot l) in
    let read_target name key =
      let value, p = L.snap_get_with_proof head key in
      {
        tname = Printf.sprintf "%s/%s" S.name name;
        encoded = L.encode_read_proof p;
        classify =
          classify_with ~decode:L.decode_read_proof
            ~verify:(fun q -> L.verify_read ~digest ~key ~value q)
            ~normalize:(fun q -> norm_read q p.L.rp_digest)
            ~honest:p;
      }
    in
    let range_target =
      let lo, hi = K.range_bounds ~lo:0 ~hi:23 in
      let entries, p = L.snap_range_with_proof head ~lo ~hi in
      {
        tname = S.name ^ "/range_proof";
        encoded = L.encode_read_proof p;
        classify =
          classify_with ~decode:L.decode_read_proof
            ~verify:(fun q -> L.verify_range ~digest ~lo ~hi ~entries q)
            ~normalize:(fun q -> norm_read q p.L.rp_digest)
            ~honest:p;
      }
    in
    let batch_target =
      let keys = [ kp; ka; K.key_of 3; K.key_of 17 ] in
      let values, p = L.snap_get_batch_with_proof head keys in
      let items = List.combine keys values in
      {
        tname = S.name ^ "/batch_proof";
        encoded = L.encode_batch_proof p;
        classify =
          classify_with ~decode:L.decode_batch_proof
            ~verify:(fun q -> L.verify_batch_read ~digest ~items q)
            ~normalize:(fun q ->
                L.encode_batch_proof
                  { q with L.brp_digest = p.L.brp_digest; L.brp_index = canon_index q.L.brp_index })
            ~honest:p;
      }
    in
    let receipt_target =
      let r = List.hd (L.write_receipts l ~height:(L.height l - 1)) in
      {
        tname = S.name ^ "/receipt";
        encoded = L.encode_receipt r;
        classify =
          classify_with ~decode:L.decode_receipt
            ~verify:(fun q -> L.verify_write ~digest q)
            ~normalize:(fun q -> L.encode_receipt { q with L.wr_digest = r.L.wr_digest })
            ~honest:r;
      }
    in
    let siri_target =
      (* the raw index proof, without the ledger envelope *)
      let store = Spitz_storage.Object_store.create () in
      let t =
        List.fold_left
          (fun t i -> S.insert t (K.key_of i) (K.value_of ~version:i (K.key_of i)))
          (S.create store)
          (List.init 20 Fun.id)
      in
      let d = S.root_digest t in
      let key = K.key_of (K.int rng 20) in
      let value, proof = S.get_with_proof t key in
      {
        tname = S.name ^ "/siri_proof";
        encoded = Spitz_adt.Siri.encode_proof proof;
        classify =
          classify_with ~decode:Spitz_adt.Siri.decode_proof
            ~verify:(fun q -> S.verify_get ~digest:d ~key ~value q)
            ~normalize:(fun q -> Spitz_adt.Siri.encode_proof (canon_index q))
            ~honest:proof;
      }
    in
    let journal_target =
      let j = L.journal l in
      let height = L.height l - 1 in
      let header = Spitz_ledger.Journal.header j height in
      let proof = Spitz_ledger.Journal.prove_inclusion j height in
      {
        tname = S.name ^ "/journal_inclusion";
        encoded = Spitz_adt.Merkle.encode_proof proof;
        classify =
          classify_with ~decode:Spitz_adt.Merkle.decode_proof
            ~verify:(fun q -> Spitz_ledger.Journal.verify_inclusion ~digest ~height ~header q)
            ~normalize:Spitz_adt.Merkle.encode_proof ~honest:proof;
      }
    in
    [
      read_target "read_proof_present" kp;
      read_target "read_proof_absent" ka;
      range_target;
      batch_target;
      receipt_target;
      siri_target;
      journal_target;
    ]
end

module T_bpt = MakeTargets (Spitz_adt.Merkle_bptree)
module T_pos = MakeTargets (Spitz_adt.Pos_tree)
module T_mpt = MakeTargets (Spitz_adt.Mpt)
module T_mbt = MakeTargets (Spitz_adt.Mbt)

(* Baseline system: its proof crosses the same kind of boundary. *)
let baseline_targets ~seed =
  let module B = Spitz_baseline.Baseline_db in
  let rng = K.rng (seed lxor 0xBA5E) in
  let b = B.create () in
  for i = 0 to 19 do
    ignore (B.put b (K.key_of i) (K.value_of ~version:i (K.key_of i)))
  done;
  let digest = B.digest b in
  let key = K.key_of (K.int rng 20) in
  let value = Option.get (B.get b key) in
  let p = Option.get (B.prove b key) in
  [
    {
      tname = "baseline/proof";
      encoded = B.encode_proof p;
      classify =
        classify_with ~decode:B.decode_proof
          ~verify:(fun q -> B.verify ~digest ~key ~value q)
          ~normalize:B.encode_proof ~honest:p;
    };
  ]

(* Decoder-robustness targets: no soundness claim, but mutants must decode
   or raise [Malformed] — never anything else. *)
let decoder_targets ~seed =
  let rng = K.rng (seed lxor 0xDEC0) in
  let block =
    let entries =
      List.init 6 (fun i ->
          {
            Spitz_ledger.Block.op = (if i mod 3 = 0 then Spitz_ledger.Block.Delete else Spitz_ledger.Block.Update);
            key = K.key_of i;
            value_hash = Spitz_crypto.Hash.of_string (K.key_of (i + 100));
            txn_id = i;
          })
    in
    Spitz_ledger.Block.create ~height:0 ~prev_hash:Spitz_crypto.Hash.null
      ~index_root:(Spitz_crypto.Hash.of_string "root") ~time:42 ~entries
      ~statements:[ "INSERT"; "UPDATE" ]
  in
  let decode_only name enc dec =
    {
      tname = name;
      encoded = enc;
      classify =
        (fun data ->
           match dec data with
           | exception Wire.Malformed _ -> Rejected_decode
           | exception e -> Foreign ("decode raised " ^ Printexc.to_string e)
           | _ -> Benign);
    }
  in
  [
    decode_only "block/body" (Spitz_ledger.Block.encode block) Spitz_ledger.Block.decode;
    decode_only "ipc/request_snap_get"
      (Spitz_nonintrusive.Ipc.encode_request
         (Spitz_nonintrusive.Ipc.SnapGet (5, K.key_of (K.int rng 24))))
      Spitz_nonintrusive.Ipc.decode_request;
    decode_only "ipc/request_snap_range"
      (Spitz_nonintrusive.Ipc.encode_request
         (Spitz_nonintrusive.Ipc.SnapRange (5, K.key_of 2, K.key_of 11)))
      Spitz_nonintrusive.Ipc.decode_request;
    decode_only "ipc/request_batch"
      (Spitz_nonintrusive.Ipc.encode_request
         (Spitz_nonintrusive.Ipc.GetBatch (5, List.init 4 K.key_of)))
      Spitz_nonintrusive.Ipc.decode_request;
    decode_only "ipc/request_anchor"
      (Spitz_nonintrusive.Ipc.encode_request (Spitz_nonintrusive.Ipc.Anchor 300))
      Spitz_nonintrusive.Ipc.decode_request;
    decode_only "ipc/request_receipts"
      (Spitz_nonintrusive.Ipc.encode_request (Spitz_nonintrusive.Ipc.Receipts 5))
      Spitz_nonintrusive.Ipc.decode_request;
    decode_only "ipc/request_apply"
      (Spitz_nonintrusive.Ipc.encode_request
         (Spitz_nonintrusive.Ipc.Apply
            {
              token = "fuzz-token";
              puts = List.init 3 (fun i -> (K.key_of i, K.value_of (K.key_of i)));
              deletes = [ K.key_of 9 ];
            }))
      Spitz_nonintrusive.Ipc.decode_request;
    decode_only "ipc/response_batch"
      (Spitz_nonintrusive.Ipc.encode_response
         (Spitz_nonintrusive.Ipc.BatchProof
            ([ Some (K.value_of (K.key_of 0)); None ], "opaque-proof-bytes")))
      Spitz_nonintrusive.Ipc.decode_response;
    decode_only "ipc/response_anchor"
      (Spitz_nonintrusive.Ipc.encode_response
         (Spitz_nonintrusive.Ipc.AnchorResp
            {
              Spitz_nonintrusive.Ipc.root = Spitz_crypto.Hash.of_string "anchor";
              size = 7;
              consistency =
                [ Spitz_crypto.Hash.of_string "a"; Spitz_crypto.Hash.of_string "b" ];
            }))
      Spitz_nonintrusive.Ipc.decode_response;
    decode_only "ipc/response_horizon"
      (Spitz_nonintrusive.Ipc.encode_response (Spitz_nonintrusive.Ipc.Below_horizon 300))
      Spitz_nonintrusive.Ipc.decode_response;
    decode_only "ipc/response_entries"
      (Spitz_nonintrusive.Ipc.encode_response
         (Spitz_nonintrusive.Ipc.EntriesProof
            ([ (K.key_of 0, K.value_of (K.key_of 0)) ], Some "opaque-proof")))
      Spitz_nonintrusive.Ipc.decode_response;
  ]

let proof_targets ~seed =
  T_bpt.targets ~seed @ T_pos.targets ~seed @ T_mpt.targets ~seed @ T_mbt.targets ~seed
  @ baseline_targets ~seed @ decoder_targets ~seed

let fuzz_proofs ?(mutants_per_target = 320) ~seed () =
  let rng = K.rng (seed lxor 0xF022) in
  List.fold_left
    (fun acc t -> merge acc (fuzz_target rng ~mutants:mutants_per_target t))
    empty_report (proof_targets ~seed)

(* --- durable-store fuzzing --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let temp_dir rng =
  let rec go n =
    if n > 100 then failwith "Fuzz.temp_dir: cannot create";
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "spitz_fuzz_%x" (K.next rng land 0xFFFFFF))
    in
    match Sys.mkdir path 0o700 with
    | () -> path
    | exception Sys_error _ -> go (n + 1)
  in
  go 0

let rec copy_dir src dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o700;
  Array.iter
    (fun f ->
       let s = Filename.concat src f and d = Filename.concat dst f in
       if Sys.is_directory s then copy_dir s d else write_file d (read_file s))
    (Sys.readdir src)

(* Regular files under [dir], as paths relative to it — the WAL is a
   subdirectory of segments, and its files are mutation victims too. *)
let rec files_under ?(rel = "") dir =
  Array.to_list (Sys.readdir dir)
  |> List.concat_map (fun f ->
      let path = Filename.concat dir f in
      let rel = if rel = "" then f else Filename.concat rel f in
      if Sys.is_directory path then files_under ~rel path else [ rel ])

(* One durable database to mutate copies of: two checkpoint generations so
   snapshot, wal, and meta all exist and all carry real state. *)
let build_durable rng dir =
  let d = Spitz.Db.open_durable ~sync:Spitz_storage.Wal.Never dir in
  let db = Spitz.Db.durable_db d in
  let commit () =
    ignore
      (Spitz.Db.commit db
         (List.init
            (2 + K.int rng 4)
            (fun _ ->
               let k = K.key_of (K.int rng 16) in
               if K.int rng 8 = 0 then Ledger.Delete k
               else Ledger.Put (k, K.value_of ~version:(K.next rng land 0xFFFF) k))))
  in
  for _ = 1 to 4 do commit () done;
  Spitz.Db.checkpoint d;
  for _ = 1 to 4 do commit () done;
  Spitz.Db.sync_durable d;
  let digest = Spitz.Db.digest db in
  Spitz.Db.close_durable d;
  digest

let classify_durable_open dir =
  match Spitz.Db.open_durable ~sync:Spitz_storage.Wal.Never dir with
  | exception Spitz.Db.Corrupt _ -> Rejected_verify
  | exception e -> Foreign ("open_durable raised " ^ Printexc.to_string e)
  | d ->
    let db = Spitz.Db.durable_db d in
    let audited = Spitz.Db.audit db in
    Spitz.Db.close_durable d;
    if audited then Benign
    else Accepted "recovered database fails its own chain audit"

let fuzz_wal ?(cases = 200) ~seed () =
  let rng = K.rng (seed lxor 0x3A1D) in
  let base = temp_dir rng in
  let r = ref empty_report in
  Fun.protect ~finally:(fun () -> rm_rf base) @@ fun () ->
  ignore (build_durable rng base);
  let files = Array.of_list (files_under base) in
  let tally tname outcome =
    let acc = !r in
    r :=
      (match outcome with
       | Rejected_decode -> { acc with total = acc.total + 1; rejected_decode = acc.rejected_decode + 1 }
       | Rejected_verify -> { acc with total = acc.total + 1; rejected_verify = acc.rejected_verify + 1 }
       | Benign -> { acc with total = acc.total + 1; benign = acc.benign + 1 }
       | Accepted d -> { acc with total = acc.total + 1; accepted = (tname, d) :: acc.accepted }
       | Foreign d -> { acc with total = acc.total + 1; foreign = (tname, d) :: acc.foreign })
  in
  (* directory mutants: recover or Corrupt, never anything else *)
  for _ = 1 to cases do
    let victim = files.(K.int rng (Array.length files)) in
    let dir = temp_dir rng in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    copy_dir base dir;
    let path = Filename.concat dir victim in
    write_file path (Mutate.random rng (read_file path));
    tally ("durable/" ^ victim) (classify_durable_open dir)
  done;
  (* raw framing fuzz: segment replay of a mutated log file raises only
     when the mutant no longer starts with (a prefix of) the segment's
     version header — and then only [Wal.Corrupt] — and with repair off
     never consumes past the file *)
  let wal_path = Filename.concat base "wal_raw" in
  let log = Spitz_storage.Wal.open_log ~sync:Spitz_storage.Wal.Never wal_path in
  for i = 0 to 19 do
    Spitz_storage.Wal.append log (K.value_of ~version:i (K.key_of i))
  done;
  Spitz_storage.Wal.close log;
  let honest =
    (* the log is a directory of segments; this one has exactly one *)
    match files_under wal_path with
    | [ seg ] -> read_file (Filename.concat wal_path seg)
    | segs -> failwith (Printf.sprintf "Fuzz.fuzz_wal: %d segments" (List.length segs))
  in
  let frame_cases = max 1 (cases / 2) in
  for _ = 1 to frame_cases do
    let mutant_path = Filename.concat base "wal_mutant" in
    let mutant = Mutate.random rng honest in
    write_file mutant_path mutant;
    let size = String.length mutant in
    let header = Spitz_storage.Wal.segment_header in
    let n = min (String.length mutant) (String.length header) in
    let headed = String.equal (String.sub mutant 0 n) (String.sub header 0 n) in
    tally "wal/replay"
      (match Spitz_storage.Wal.replay_segment ~repair:false mutant_path with
       | exception Spitz_storage.Wal.Corrupt _ when not headed -> Rejected_decode
       | exception e -> Foreign ("replay raised " ^ Printexc.to_string e)
       | _ when not headed -> Accepted "a segment without its version header was read"
       | res ->
         if res.Spitz_storage.Wal.good_bytes + res.Spitz_storage.Wal.torn_bytes = size
         then Benign
         else Accepted "replay byte accounting does not cover the file")
  done;
  !r

(* --- live-server frame fuzzing ---

   The offline targets above exercise the codecs; this one exercises the
   whole network stack: structurally mutated frames (header + payload of
   honest requests) are sent to a real loopback server, one fresh connection
   per case. The contract: the server answers an [Error], drops the
   connection, or — when the mutation happened to preserve CRC-valid framing
   and a decodable payload — serves it like any valid request. It must never
   hang, never send a malformed response, and never die. Each case half-
   closes the send side after the mutant, so a short/torn mutant surfaces as
   EOF on the server instead of a stuck read. *)

let write_all fd data =
  let len = String.length data in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd data !off (len - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let frame_case port mutant =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  (* the server may already have dropped us mid-write: that is a rejection,
     not an error *)
  (try write_all fd mutant with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  match Spitz_server.Frame.read fd with
  | payload -> (
    match Spitz_nonintrusive.Ipc.decode_response payload with
    | Spitz_nonintrusive.Ipc.Error _ -> Rejected_decode
    | _ ->
      (* CRC-valid framing and a decodable payload: by protocol definition a
         valid request, served normally *)
      Benign
    | exception Wire.Malformed m -> Foreign ("server sent malformed response: " ^ m)
    | exception e -> Foreign ("response decode raised " ^ Printexc.to_string e))
  | exception (Spitz_server.Frame.Closed | End_of_file) -> Rejected_decode
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Rejected_decode
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Foreign "server hung on a mutant frame"
  | exception Wire.Malformed m -> Foreign ("server sent unframeable bytes: " ^ m)
  | exception e -> Foreign ("frame read raised " ^ Printexc.to_string e)

let fuzz_frames ?(cases = 400) ~seed () =
  let rng = K.rng (seed lxor 0xF4A3E) in
  let db = Spitz.Db.open_db () in
  for i = 0 to 7 do
    ignore (Spitz.Db.put db (K.key_of i) (K.value_of (K.key_of i)))
  done;
  let config =
    { Spitz_server.Server.default_config with accept_domains = 1; max_connections = 16 }
  in
  let server = Spitz_server.Server.start ~config db in
  Fun.protect ~finally:(fun () -> Spitz_server.Server.stop server) @@ fun () ->
  let port = Spitz_server.Server.port server in
  let honest rng =
    let module I = Spitz_nonintrusive.Ipc in
    let k () = K.key_of (K.int rng 8) in
    match K.int rng 10 with
    | 0 ->
      I.Apply
        {
          token = Printf.sprintf "fz-put-%d" (K.int rng 64);
          puts = [ (k (), K.value_of (k ())) ];
          deletes = [];
        }
    | 1 -> I.Get (k ())
    | 2 -> I.Range (K.key_of 0, K.key_of 7)
    | 3 -> I.SnapGet (K.int rng 8, k ())
    | 4 -> I.GetBatch (7, [ k (); k (); k () ])
    | 5 -> I.SnapGet (7, k ())
    | 6 -> I.SnapRange (7, K.key_of 0, K.key_of 7)
    | 7 -> I.Anchor (K.int rng 8)
    | 8 ->
      I.Apply
        { token = Printf.sprintf "fz-%d" (K.int rng 4); puts = [ (k (), "v") ]; deletes = [] }
    | _ -> I.Receipts (K.int rng 8)
  in
  let r = ref empty_report in
  let record tname outcome =
    let acc = !r in
    r :=
      (match outcome with
       | Rejected_decode -> { acc with total = acc.total + 1; rejected_decode = acc.rejected_decode + 1 }
       | Rejected_verify -> { acc with total = acc.total + 1; rejected_verify = acc.rejected_verify + 1 }
       | Benign -> { acc with total = acc.total + 1; benign = acc.benign + 1 }
       | Accepted d -> { acc with total = acc.total + 1; accepted = (tname, d) :: acc.accepted }
       | Foreign d -> { acc with total = acc.total + 1; foreign = (tname, d) :: acc.foreign })
  in
  for i = 1 to cases do
    let frame =
      Spitz_server.Frame.encode
        (Spitz_nonintrusive.Ipc.encode_request (honest rng))
    in
    let mutant = Mutate.random rng frame in
    let outcome =
      try frame_case port mutant
      with e -> Foreign ("case raised " ^ Printexc.to_string e)
    in
    record "frame/live" outcome;
    (* periodic health probe: the server must still serve honest traffic
       correctly after absorbing a batch of garbage *)
    if i mod 100 = 0 || i = cases then begin
      let outcome =
        try
          let s = Spitz_server.Session.connect ~port () in
          Fun.protect ~finally:(fun () -> Spitz_server.Session.close s) @@ fun () ->
          let probe = Printf.sprintf "health-%d" i in
          ignore (Spitz_server.Session.put s probe probe);
          if Spitz_server.Session.get_verified s probe = Some probe then Benign
          else Foreign "health probe: verified read came back wrong"
        with e -> Foreign ("health probe raised " ^ Printexc.to_string e)
      in
      record "frame/health" outcome
    end
  done;
  !r

(* --- slice-decode equivalence ---

   Property: decoding bytes through a [Slice.t] window equals decoding the
   same bytes as a standalone string — the same value, or the same
   [Wire.Malformed] rejection (the messages too: the reader code is shared,
   only the window differs). Exercised on honest encodings and random
   mutants, each embedded at a random offset inside a larger buffer — with
   live bytes before and after the window — plus directed edge cases: the
   empty slice, a window ending exactly at the buffer's end, and a torn
   varint whose continuation bytes stop at the slice edge while decodable
   bytes continue beyond it. A reader that consulted the base buffer's
   length instead of the window limit would read through the edge and
   diverge; the window must behave exactly like a copy. *)

module Slice = Spitz_storage.Slice

(* A reader shaped like the node codecs: every Wire read primitive. *)
let read_shaped r =
  let tag = Wire.read_byte r in
  let kvs =
    Wire.read_list r (fun r ->
        let k = Wire.read_string r in
        let v = Wire.read_string r in
        (k, v))
  in
  let hs = Wire.read_hash_list r in
  let n = Wire.read_varint r in
  (tag, kvs, hs, n)

let encode_shaped rng =
  let buf = Wire.writer () in
  Wire.write_byte buf (Char.chr (K.int rng 256));
  Wire.write_list buf
    (fun buf (k, v) -> Wire.write_string buf k; Wire.write_string buf v)
    (List.init (K.int rng 5) (fun i -> (K.key_of i, K.value_of (K.key_of i))));
  Wire.write_hash_list buf
    (List.init (K.int rng 3) (fun i -> Spitz_crypto.Hash.of_string (K.key_of i)));
  Wire.write_varint buf (K.int rng 1_000_000);
  Wire.contents buf

let slice_case ~tname read data ~before ~after =
  let against expected =
    let padded = before ^ data ^ after in
    let sl =
      Slice.sub (Slice.of_string padded)
        ~pos:(String.length before) ~len:(String.length data)
    in
    let got =
      match Wire.decode_slice tname read sl with
      | v -> Ok v
      | exception Wire.Malformed m -> Error m
    in
    if got = expected then
      (match got with Ok _ -> Benign | Error _ -> Rejected_decode)
    else
      Accepted
        (Printf.sprintf "slice decode at offset %d diverged from string decode: %s"
           (String.length before) (Spitz_crypto.Hash.hex_of_string data))
  in
  match
    match Wire.decode tname read data with
    | v -> Ok v
    | exception Wire.Malformed m -> Error m
  with
  | expected -> against expected
  | exception e -> Foreign ("string decode raised " ^ Printexc.to_string e)

let fuzz_slices ?(cases = 400) ~seed () =
  let rng = K.rng (seed lxor 0x51CE) in
  let r = ref empty_report in
  let record tname outcome =
    let acc = !r in
    r :=
      (match outcome with
       | Rejected_decode -> { acc with total = acc.total + 1; rejected_decode = acc.rejected_decode + 1 }
       | Rejected_verify -> { acc with total = acc.total + 1; rejected_verify = acc.rejected_verify + 1 }
       | Benign -> { acc with total = acc.total + 1; benign = acc.benign + 1 }
       | Accepted d -> { acc with total = acc.total + 1; accepted = (tname, d) :: acc.accepted }
       | Foreign d -> { acc with total = acc.total + 1; foreign = (tname, d) :: acc.foreign })
  in
  let rand_pad rng = String.init (K.int rng 9) (fun _ -> Char.chr (K.int rng 256)) in
  (* directed edges first, so they run even with a tiny budget *)
  record "slice/empty" (slice_case ~tname:"slice" read_shaped "" ~before:"xx" ~after:"yy");
  record "slice/at_end"
    (slice_case ~tname:"slice" read_shaped (encode_shaped rng) ~before:"header" ~after:"");
  (* the final varint's continuation bytes stop at the window edge; the
     byte just beyond would terminate it into a clean decode *)
  let torn =
    let buf = Wire.writer () in
    Wire.write_byte buf 'T';
    Wire.write_varint buf 0;     (* empty kv list *)
    Wire.write_varint buf 0;     (* empty hash list *)
    Wire.contents buf ^ "\x80\x80"
  in
  record "slice/torn_varint"
    (slice_case ~tname:"slice" read_shaped torn ~before:"" ~after:"\x01");
  for _ = 1 to cases do
    let honest = encode_shaped rng in
    let data = if K.int rng 2 = 0 then honest else Mutate.random rng honest in
    record "slice/equiv"
      (slice_case ~tname:"slice" read_shaped data ~before:(rand_pad rng) ~after:(rand_pad rng))
  done;
  !r

let fuzz_all ?mutants_per_target ?wal_cases ?frame_cases ?slice_cases ~seed () =
  merge
    (merge
       (merge (fuzz_proofs ?mutants_per_target ~seed ()) (fuzz_wal ?cases:wal_cases ~seed ()))
       (fuzz_frames ?cases:frame_cases ~seed ()))
    (fuzz_slices ?cases:slice_cases ~seed ())

let run_deadline ~deadline ~seed progress =
  let stop = Unix.gettimeofday () +. deadline in
  let master = K.rng seed in
  let rec go round acc =
    if Unix.gettimeofday () >= stop then acc
    else begin
      let round_seed = K.state (K.split master) in
      let r = fuzz_all ~seed:round_seed () in
      let acc = merge acc r in
      progress ~round ~seed:round_seed acc;
      if ok r then go (round + 1) acc else acc
    end
  in
  go 0 empty_report
