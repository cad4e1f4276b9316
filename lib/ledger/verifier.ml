open Spitz_adt

(* Client-side verification state (paper section 5.3). The client pins the
   journal digest locally; every proof is checked against it. Digest
   advancement requires a consistency proof, so a server that rewrites
   history is caught even across digest updates.

   Two timing modes: [Online] checks each proof as it arrives (commit only
   after verification succeeds); [Deferred n] queues proofs and checks them
   in batches of [n], trading detection latency for throughput — the mode
   Spitz uses to improve verification throughput. *)

module Make (Index : Siri.S) = struct
  module L = Ledger.Make (Index)

  type mode = Online | Deferred of int

  type check =
    | Read of string * string option * L.read_proof
    | Range of string * string * (string * string) list * L.read_proof
    | Batch of (string * string option) list * L.batch_read_proof
    | Write of L.write_receipt

  type t = {
    mode : mode;
    mutable digest : Journal.digest option; (* trusted pin; None before first sync *)
    trusted : (Spitz_crypto.Hash.t * int, unit) Hashtbl.t;
    (* every digest the pin has passed through, each proven an append-only
       extension of the previous one — a proof anchored in any of them is
       anchored in the same history the client trusts *)
    anchors : (Spitz_crypto.Hash.t * int * int * Spitz_crypto.Hash.t, unit) Hashtbl.t;
    (* journal anchors already proven: (digest root, digest size, height,
       header id). Anchoring is a fact about the unit, not about one proof's
       bytes, so a proven unit never needs re-proving. *)
    verified : (Spitz_crypto.Hash.t * string * string option, unit) Hashtbl.t;
    (* read claims already proven: (index root, key, value). A claim proven
       under a root holds regardless of which proof bytes carried it. *)
    mutable pending : check list;
    mutable pending_count : int;
    mutable checked : int;
    mutable failures : int;
  }

  let create ?(mode = Online) () =
    { mode; digest = None; trusted = Hashtbl.create 64;
      anchors = Hashtbl.create 64; verified = Hashtbl.create 256;
      pending = []; pending_count = 0; checked = 0; failures = 0 }

  let digest t = t.digest
  let checked t = t.checked
  let failures t = t.failures

  let trust t (d : Journal.digest) = Hashtbl.replace t.trusted (d.Journal.root, d.Journal.size) ()

  let is_trusted t (d : Journal.digest) = Hashtbl.mem t.trusted (d.Journal.root, d.Journal.size)

  (* Pin the first digest, or advance the pin with an append-only proof. *)
  let sync t ~digest:new_digest ~consistency =
    match t.digest with
    | None ->
      t.digest <- Some new_digest;
      trust t new_digest;
      true
    | Some old_digest ->
      if Journal.verify_consistency ~old_digest ~new_digest consistency then begin
        t.digest <- Some new_digest;
        trust t new_digest;
        true
      end
      else begin
        t.failures <- t.failures + 1;
        false
      end

  (* Proofs anchor in the digest current when they were produced. In deferred
     mode the pin may have advanced since, so a proof is accepted iff its
     anchoring digest is one the pin has passed through (hence proven
     consistent with the current pin). *)
  let run_check t check =
    let ok =
      match t.digest with
      | None -> false
      | Some _ ->
        (match check with
         | Read (key, value, proof) ->
           is_trusted t proof.L.rp_digest
           && L.verify_read ~digest:proof.L.rp_digest ~key ~value proof
         | Range (lo, hi, entries, proof) ->
           is_trusted t proof.L.rp_digest
           && L.verify_range ~digest:proof.L.rp_digest ~lo ~hi ~entries proof
         | Batch (items, proof) ->
           is_trusted t proof.L.brp_digest
           && L.verify_batch_read ~digest:proof.L.brp_digest ~items proof
         | Write receipt ->
           is_trusted t receipt.L.wr_digest
           && L.verify_write ~digest:receipt.L.wr_digest receipt)
    in
    t.checked <- t.checked + 1;
    if not ok then t.failures <- t.failures + 1;
    ok

  let read_anchor_key (proof : L.read_proof) =
    ( proof.L.rp_digest.Journal.root, proof.L.rp_digest.Journal.size,
      proof.L.rp_height, Block.hash_header proof.L.rp_header )

  let batch_anchor_key (proof : L.batch_read_proof) =
    ( proof.L.brp_digest.Journal.root, proof.L.brp_digest.Journal.size,
      proof.L.brp_height, Block.hash_header proof.L.brp_header )

  let write_anchor_key (receipt : L.write_receipt) =
    ( receipt.L.wr_digest.Journal.root, receipt.L.wr_digest.Journal.size,
      receipt.L.wr_height, Block.hash_header receipt.L.wr_header )

  (* Batched flush. The queued checks are coalesced into unique verification
     units before anything is evaluated:

     - the journal-inclusion anchor is proven once per distinct
       (digest, height, header) unit — many reads against one block share a
       single anchor check instead of paying one each;
     - read claims whose (index root, key, value) triple was already proven
       (earlier flush or earlier in this one) are skipped entirely via the
       persistent verified-set cache;
     - each remaining unit is evaluated once, in submission order; caches
       and counters are settled after the whole batch.

     Identical logical units share one verdict, so within a flush a unit is
     judged by the first proof bytes queued for it; honest servers emit
     identical bytes for identical units, making the distinction
     unobservable except under tampering (where the flush fails anyway). *)
  let flush t =
    let checks = List.rev t.pending in
    t.pending <- [];
    t.pending_count <- 0;
    let anchor_units = Hashtbl.create 16 in
    let claim_units = Hashtbl.create 64 in
    (* [None] = already proven (cache hit); [Some ok] = this flush's verdict. *)
    let shared table cache key check =
      if Hashtbl.mem cache key then None
      else
        Some
          (match Hashtbl.find_opt table key with
           | Some ok -> ok
           | None ->
             let ok = check () in
             Hashtbl.replace table key ok;
             ok)
    in
    (* Per check: (digest trusted, verdicts that must all hold). *)
    let plan check =
      match t.digest with
      | None -> (false, [])
      | Some _ ->
        (match check with
         | Read (key, value, proof) ->
           if not (is_trusted t proof.L.rp_digest) then (false, [])
           else begin
             let digest = proof.L.rp_digest in
             let a =
               shared anchor_units t.anchors (read_anchor_key proof)
                 (fun () -> L.verify_read_anchor ~digest proof)
             in
             let c =
               shared claim_units t.verified
                 (proof.L.rp_header.Block.index_root, key, value)
                 (fun () -> L.verify_read_at_root ~key ~value proof)
             in
             (true, List.filter_map Fun.id [ a; c ])
           end
         | Range (lo, hi, entries, proof) ->
           if not (is_trusted t proof.L.rp_digest) then (false, [])
           else begin
             let digest = proof.L.rp_digest in
             let a =
               shared anchor_units t.anchors (read_anchor_key proof)
                 (fun () -> L.verify_read_anchor ~digest proof)
             in
             let r = L.verify_range_at_root ~lo ~hi ~entries proof in
             (true, r :: Option.to_list a)
           end
         | Batch (items, proof) ->
           if not (is_trusted t proof.L.brp_digest) then (false, [])
           else begin
             let digest = proof.L.brp_digest in
             let a =
               shared anchor_units t.anchors (batch_anchor_key proof)
                 (fun () -> L.verify_batch_anchor ~digest proof)
             in
             (* the claims are skipped when each was proven already; one
                proof proves them all, so they join the proven claims *)
             let root = proof.L.brp_header.Block.index_root in
             let claims = List.map (fun (key, value) -> (root, key, value)) items in
             let c =
               if List.for_all (Hashtbl.mem t.verified) claims then None
               else begin
                 let ok = L.verify_batch_at_root ~items proof in
                 if ok then List.iter (fun k -> Hashtbl.replace claim_units k true) claims;
                 Some ok
               end
             in
             (true, List.filter_map Fun.id [ a; c ])
           end
         | Write receipt ->
           if not (is_trusted t receipt.L.wr_digest) then (false, [])
           else begin
             let digest = receipt.L.wr_digest in
             let a =
               shared anchor_units t.anchors (write_anchor_key receipt)
                 (fun () -> L.verify_write_anchor ~digest receipt)
             in
             let e = L.verify_write_entry receipt in
             (true, e :: Option.to_list a)
           end)
    in
    let plans = List.map plan checks in
    (* Promote proven units into the persistent caches, then settle
       counters in submission order. *)
    Hashtbl.iter (fun k ok -> if ok then Hashtbl.replace t.anchors k ()) anchor_units;
    Hashtbl.iter (fun k ok -> if ok then Hashtbl.replace t.verified k ()) claim_units;
    List.fold_left
      (fun acc (trusted, verdicts) ->
         let ok = trusted && List.for_all Fun.id verdicts in
         t.checked <- t.checked + 1;
         if not ok then t.failures <- t.failures + 1;
         ok && acc)
      true plans

  (* Submit a proof for verification. Returns [Some ok] when verified now
     (online mode, or a deferred batch just filled), [None] when queued. *)
  let submit t check =
    match t.mode with
    | Online -> Some (run_check t check)
    | Deferred batch ->
      t.pending <- check :: t.pending;
      t.pending_count <- t.pending_count + 1;
      if t.pending_count >= batch then Some (flush t) else None

  let submit_read t ~key ~value proof = submit t (Read (key, value, proof))
  let submit_range t ~lo ~hi ~entries proof = submit t (Range (lo, hi, entries, proof))
  let submit_batch t ~items proof = submit t (Batch (items, proof))
  let submit_write t receipt = submit t (Write receipt)
end

module Default = Make (Merkle_bptree)
