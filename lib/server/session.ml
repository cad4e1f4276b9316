module Db = Spitz.Db
module Ipc = Spitz_nonintrusive.Ipc
module Journal = Spitz_ledger.Journal

exception Verification_failed of string
exception Server_error of string

type t = {
  port : int;
  retries : int;
  mutable fd : Unix.file_descr option;
  verifier : Db.V.t;
  nonce : string;
  mutable seq : int;
  mutable conflicts : int;
  (* reusable per-session buffers; sessions are single-threaded *)
  scratch : Frame.scratch;
  out : Spitz_storage.Wire.writer;
}

let session_counter = Atomic.make 0

let connect ?(retries = 3) ~port () =
  {
    port;
    retries;
    fd = None;
    verifier = Db.V.create ();
    nonce =
      Printf.sprintf "%d.%d.%d" (Unix.getpid ())
        (Atomic.fetch_and_add session_counter 1)
        (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF);
    seq = 0;
    conflicts = 0;
    scratch = Frame.scratch ();
    out = Spitz_storage.Wire.writer ~size:512 ();
  }

let disconnect t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let close = disconnect

let ensure_connected t =
  match t.fd with
  | Some fd -> fd
  | None ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
       Unix.setsockopt fd Unix.TCP_NODELAY true
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    t.fd <- Some fd;
    fd

(* Every request a session issues is idempotent (writes carry Apply tokens),
   so a connection loss at any point — before the request reached the
   server, or after it was served but before the response arrived — is
   safely retried by reconnecting and resending. The answer is decoded
   straight out of the frame buffer, proofs included, before the next
   request reuses it. *)
let rpc t req =
  (* encode once into the session's reused writer; the bytes stay valid
     across retries because nothing else touches the writer until [rpc]
     returns *)
  Spitz_storage.Wire.clear t.out;
  Ipc.write_request t.out req;
  let rec go attempt =
    match
      let fd = ensure_connected t in
      Frame.write_slices ~scratch:t.scratch fd [ Spitz_storage.Wire.view t.out ];
      Ipc.decode_answer ~read:Db.L.read_read_proof ~batch:Db.L.read_batch_proof
        (Frame.read_slice t.scratch fd)
    with
    | resp -> resp
    | exception ((Frame.Closed | End_of_file | Unix.Unix_error _) as e) ->
      disconnect t;
      if attempt >= t.retries then raise e
      else begin
        Thread.delay (0.01 *. float_of_int (attempt + 1));
        go (attempt + 1)
      end
  in
  let resp = go 0 in
  Spitz_storage.Slice.Writer.clear_within t.out Frame.max_retained;
  match resp with Ipc.Error msg -> raise (Server_error msg) | resp -> resp

let protocol_error what =
  raise (Spitz_storage.Wire.Malformed ("Session: unexpected response to " ^ what))

let digest t = Db.V.digest t.verifier
let pin_height t = Option.map (fun (d : Journal.digest) -> d.size - 1) (digest t)
let checked t = Db.V.checked t.verifier
let failures t = Db.V.failures t.verifier
let conflicts t = t.conflicts

let sync t =
  let known = match digest t with None -> 0 | Some d -> d.size in
  match rpc t (Ipc.Anchor known) with
  | Ipc.AnchorResp { Ipc.root; size; consistency } ->
    let d : Journal.digest = { root; size } in
    if not (Db.V.sync t.verifier ~digest:d ~consistency) then
      raise
        (Verification_failed
           (Printf.sprintf "anchor at size %d is not an append-only extension of %d"
              size known))
  | _ -> protocol_error "Anchor"

(* Pin a digest we can serve verified reads at; [None] only when the server
   has never committed (nothing to verify — every key is vacuously absent).
   An empty pin syncs again on every read, so a session that first met an
   empty server reads what the server committed since. *)
let reading_pin t =
  (match digest t with Some d when d.size > 0 -> () | _ -> sync t);
  match digest t with
  | Some d when d.size > 0 -> Some d
  | _ -> None

(* --- writes --- *)

let apply t ~token ~puts ~deletes =
  match rpc t (Ipc.Apply { token; puts; deletes }) with
  | Ipc.Committed h -> h
  | _ -> protocol_error "Apply"

let fresh_token t =
  let s = t.seq in
  t.seq <- s + 1;
  Printf.sprintf "%s.%d" t.nonce s

let applied t ~puts ~deletes =
  let h = apply t ~token:(fresh_token t) ~puts ~deletes in
  sync t;
  h

let put t k v = applied t ~puts:[ (k, v) ] ~deletes:[]
let put_batch t kvs = applied t ~puts:kvs ~deletes:[]
let delete t k = applied t ~puts:[] ~deletes:[ k ]

(* --- reads --- *)

let get t k =
  match rpc t (Ipc.Get k) with Ipc.Value v -> v | _ -> protocol_error "Get"

let range t ~lo ~hi =
  match rpc t (Ipc.Range (lo, hi)) with
  | Ipc.Entries es -> es
  | _ -> protocol_error "Range"

(* A verified read at the pin: [request h] asks for block [h], and the
   answer comes back with the digest it must verify against. A server that
   no longer retains the pinned block's index instance (its retention
   window or a reopen from a checkpoint passed it) answers
   [Below_horizon]; the session re-anchors once
   — the new pin is proven an append-only extension of the old — and reads
   there. The answer may be fresher than the pin the call began with,
   never older. [None] when the server has never committed. *)
let pinned_read t request =
  match reading_pin t with
  | None -> None
  | Some d -> (
    match rpc t (request (d.size - 1)) with
    | Ipc.Below_horizon _ -> (
      sync t;
      let d = Option.get (digest t) in
      match rpc t (request (d.size - 1)) with
      | Ipc.Below_horizon horizon ->
        raise
          (Server_error
             (Printf.sprintf "pinned read below the horizon %d at the server's own head %d"
                horizon (d.size - 1)))
      | resp -> Some (d, resp))
    | resp -> Some (d, resp))

(* A verified point read and the height it was read at: [-1] when the
   server has never committed. *)
let read_verified t k =
  match pinned_read t (fun h -> Ipc.SnapGet (h, k)) with
  | None -> (-1, None)
  | Some (d, Ipc.ValueProof (value, Some proof)) -> (
    match Db.V.submit_read t.verifier ~key:k ~value proof with
    | Some true -> (d.size - 1, value)
    | _ -> raise (Verification_failed ("read proof for " ^ k)))
  | Some (_, Ipc.ValueProof (_, None)) -> raise (Verification_failed ("missing read proof for " ^ k))
  | Some _ -> protocol_error "SnapGet"

let get_verified t k = snd (read_verified t k)

let get_batch_verified t keys =
  match pinned_read t (fun h -> Ipc.GetBatch (h, keys)) with
  | None -> List.map (fun _ -> None) keys
  | Some (_, Ipc.BatchProof (values, proof)) -> (
    if List.length values <> List.length keys then
      raise (Verification_failed "batch read: wrong arity");
    match Db.V.submit_batch t.verifier ~items:(List.combine keys values) proof with
    | Some true -> values
    | _ -> raise (Verification_failed "batch read proof"))
  | Some _ -> protocol_error "GetBatch"

let range_verified t ~lo ~hi =
  match pinned_read t (fun h -> Ipc.SnapRange (h, lo, hi)) with
  | None -> []
  | Some (_, Ipc.EntriesProof (entries, Some proof)) -> (
    match Db.V.submit_range t.verifier ~lo ~hi ~entries proof with
    | Some true -> entries
    | _ -> raise (Verification_failed "range proof"))
  | Some (_, Ipc.EntriesProof (_, None)) -> raise (Verification_failed "missing range proof")
  | Some _ -> protocol_error "SnapRange"

(* --- read-modify-write --- *)

(* Read [key] verified at a fresh pin, then commit [f]'s value on the
   condition that no block since wrote the key. On a conflict the session
   reads again at a fresh pin and sends the same token with the new read:
   the server frees the token of a batch it refused. *)
let update t key f =
  let token = fresh_token t in
  let rec attempt () =
    sync t;
    let height, value = read_verified t key in
    let puts = [ (key, f value) ] in
    match rpc t (Ipc.Apply_if { token; reads = [ (key, height) ]; puts; deletes = [] }) with
    | Ipc.Committed h ->
      sync t;
      h
    | Ipc.Conflict _ ->
      t.conflicts <- t.conflicts + 1;
      attempt ()
    | _ -> protocol_error "Apply_if"
  in
  attempt ()

(* --- receipts --- *)

let receipts t ~height =
  match rpc t (Ipc.Receipts height) with
  | Ipc.ReceiptList rs -> List.map Db.L.decode_receipt rs
  | _ -> protocol_error "Receipts"

let verify_receipt t receipt = Db.V.submit_write t.verifier receipt = Some true
