open Spitz_storage
open Spitz_ledger

(* The non-intrusive design (paper Figure 3, evaluated in section 6.2.3): an
   unmodified underlying database (the immutable KVS) plus a separate ledger
   database, glued at the client. Reads hit the underlying system, then the
   ledger for proofs pinned at its head; writes must commit to both
   atomically. Both services speak the TCP server's verbs: writes are
   [Apply] batches, verified reads are [SnapGet] / [SnapRange]. Every crossing
   of a system boundary pays full request/response marshalling through
   {!Ipc} — the same codec the TCP server speaks, so malformed input on
   either path is rejected by the one [Wire.decode] contract, and proofs
   cross the boundary in the ledger's own wire encoding (no second proof
   codec to drift out of sync). *)

module L = Ledger.Default

type t = {
  underlying : Spitz_kvstore.Kv.t; (* its own store: a separate system *)
  ledger : L.t;                    (* ditto *)
  ipc : Ipc.t;
}

let create () =
  {
    underlying = Spitz_kvstore.Kv.create ();
    ledger = L.create (Object_store.create ());
    ipc = Ipc.create ();
  }

let ipc_stats t = Ipc.stats t.ipc

(* --- the underlying-database service --- *)

(* The unmodified KVS has no blocks; it acknowledges a batch with the
   number of writes it applied. *)
let serve_underlying t (req : Ipc.request) : Ipc.response =
  match req with
  | Ipc.Apply { puts; deletes; _ } ->
    List.iter (fun (k, v) -> ignore (Spitz_kvstore.Kv.put t.underlying k v)) puts;
    List.iter (fun k -> ignore (Spitz_kvstore.Kv.delete t.underlying k)) deletes;
    Ipc.Committed (List.length puts + List.length deletes)
  | Ipc.Get k -> Ipc.Value (Spitz_kvstore.Kv.get t.underlying k)
  | Ipc.Range (lo, hi) -> Ipc.Entries (Spitz_kvstore.Kv.range t.underlying ~lo ~hi)
  | _ -> raise (Wire.Malformed "underlying database: unsupported request")

(* --- the ledger-database service --- *)

(* The client never retries, so the ledger ignores the token and records no
   statement: a block holds exactly the batch's writes. *)
let serve_ledger t (req : Ipc.request) : Ipc.response =
  match req with
  | Ipc.Apply { puts; deletes; _ } ->
    Ipc.Committed
      (L.commit t.ledger
         (List.map (fun (k, v) -> Ledger.Put (k, v)) puts
          @ List.map (fun k -> Ledger.Delete k) deletes))
  | Ipc.SnapGet (height, k) ->
    let value, proof = L.snap_get_with_proof (L.snapshot_at t.ledger ~height) k in
    Ipc.ValueProof (value, Some (L.encode_read_proof proof))
  | Ipc.SnapRange (height, lo, hi) ->
    let entries, proof = L.snap_range_with_proof (L.snapshot_at t.ledger ~height) ~lo ~hi in
    Ipc.EntriesProof (entries, Some (L.encode_read_proof proof))
  | _ -> raise (Wire.Malformed "ledger database: unsupported request")

(* --- client operations --- *)

let bad_response () = raise (Wire.Malformed "Combined: unexpected response shape")

(* Writes commit to the underlying database and the ledger atomically (both
   or neither; in-process the two calls cannot be torn): one [Apply] batch
   to each. *)
let apply t ~puts ~deletes =
  let send serve =
    match Ipc.call t.ipc (Ipc.Apply { token = ""; puts; deletes }) ~serve with
    | Ipc.Committed _ -> ()
    | _ -> bad_response ()
  in
  send (serve_underlying t);
  send (serve_ledger t)

let put t key value = apply t ~puts:[ (key, value) ] ~deletes:[]
let delete t key = apply t ~puts:[] ~deletes:[ key ]

let get t key =
  match Ipc.call t.ipc (Ipc.Get key) ~serve:(serve_underlying t) with
  | Ipc.Value v -> v
  | _ -> bad_response ()

let range t ~lo ~hi =
  match Ipc.call t.ipc (Ipc.Range (lo, hi)) ~serve:(serve_underlying t) with
  | Ipc.Entries e -> e
  | _ -> bad_response ()

(* Proofs are read at the ledger's head height, known in process like its
   digest; before the first commit there is nothing to prove. *)
let head_height t = match L.height t.ledger with 0 -> None | n -> Some (n - 1)

let get_verified t key =
  let value = get t key in
  match head_height t with
  | None -> (value, None)
  | Some height -> (
    match Ipc.call t.ipc (Ipc.SnapGet (height, key)) ~serve:(serve_ledger t) with
    | Ipc.ValueProof (_, proof) -> (value, Option.map L.decode_read_proof proof)
    | _ -> bad_response ())

let range_verified t ~lo ~hi =
  let results = range t ~lo ~hi in
  match head_height t with
  | None -> (results, None)
  | Some height -> (
    match Ipc.call t.ipc (Ipc.SnapRange (height, lo, hi)) ~serve:(serve_ledger t) with
    | Ipc.EntriesProof (_, proof) -> (results, Option.map L.decode_read_proof proof)
    | _ -> bad_response ())

let digest t = L.digest t.ledger

let verify_read ~digest ~key ~value proof = L.verify_read ~digest ~key ~value proof
let verify_range ~digest ~lo ~hi ~entries proof = L.verify_range ~digest ~lo ~hi ~entries proof
