open Spitz_storage
module Db = Spitz.Db
module Ipc = Spitz_nonintrusive.Ipc

type config = {
  port : int;
  accept_domains : int;
  max_connections : int;
  backlog : int;
}

let default_config =
  { port = 0; accept_domains = 2; max_connections = 64; backlog = 128 }

type stats = {
  accepted : int;
  active : int;
  requests : int;
  bytes_in : int;
  bytes_out : int;
  malformed : int;
}

(* An Apply token is in flight from the moment one request claims it until
   its commit returns; then it maps to its block height. *)
type token = In_flight | Committed_at of int

type t = {
  db : Db.t;
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* [stop] writes one byte to [wake_w] and nobody reads it, so [wake_r]
     stays readable and wakes every accept loop's select *)
  mutable driver : Thread.t option; (* runs accept loop 0 *)
  mutable domains : unit Domain.t list; (* run accept loops 1 .. accept_domains - 1 *)
  conns : (int, Unix.file_descr) Hashtbl.t;
  conns_mu : Mutex.t;
  next_conn : int Atomic.t;
  tokens : (string, token) Hashtbl.t;
  tokens_mu : Mutex.t;
  token_settled : Condition.t; (* broadcast when an in-flight token settles *)
  c_accepted : int Atomic.t;
  c_active : int Atomic.t;
  c_requests : int Atomic.t;
  c_bytes_in : int Atomic.t;
  c_bytes_out : int Atomic.t;
  c_malformed : int Atomic.t;
}

let stats t =
  {
    accepted = Atomic.get t.c_accepted;
    active = Atomic.get t.c_active;
    requests = Atomic.get t.c_requests;
    bytes_in = Atomic.get t.c_bytes_in;
    bytes_out = Atomic.get t.c_bytes_out;
    malformed = Atomic.get t.c_malformed;
  }

let port t = t.bound_port

(* --- idempotent write tokens --- *)

let token_prefix = "tx:"

(* Recover every committed token from the journal's block statements, so a
   client retrying an [Apply] after a server restart still gets the original
   height back instead of a duplicate commit. Only the statements are read:
   the entries are skipped, not decoded. *)
let rebuild_tokens db tokens =
  let ledger = Db.ledger db in
  let journal = Db.L.journal ledger in
  for h = 0 to Db.L.height ledger - 1 do
    List.iter
      (fun s ->
        if String.length s > String.length token_prefix
           && String.sub s 0 (String.length token_prefix) = token_prefix
        then
          Hashtbl.replace tokens
            (String.sub s (String.length token_prefix)
               (String.length s - String.length token_prefix))
            (Committed_at h))
      (Spitz_ledger.Journal.statements journal h)
  done

(* --- request dispatch --- *)

(* The digest and its consistency proof come from one commit-lock section:
   read apart, a commit landing between them yields a proof for a longer
   journal than the digest names, which an honest client rejects. *)
let anchor db known =
  let (d : Spitz_ledger.Journal.digest), consistency = Db.anchor db ~old_size:known in
  Ipc.AnchorResp { Ipc.root = d.root; size = d.size; consistency }

(* The token table's mutex covers only the claim and the settle, not the
   commit: Applies from different connections commit concurrently and can
   share one fsync. An Apply that races an in-flight one with the same token
   waits for it and answers its height; if that commit failed, the token is
   free again and the waiter claims it. A token that committed answers its
   height before its read set is looked at; one whose read set conflicted
   did not commit, so it is free again. *)
let apply t ~token ~reads ~puts ~deletes =
  let rec claim () =
    match Hashtbl.find_opt t.tokens token with
    | Some (Committed_at h) -> Some h
    | Some In_flight ->
      Condition.wait t.token_settled t.tokens_mu;
      claim ()
    | None ->
      Hashtbl.replace t.tokens token In_flight;
      None
  in
  Mutex.lock t.tokens_mu;
  let claimed = Fun.protect ~finally:(fun () -> Mutex.unlock t.tokens_mu) claim in
  match claimed with
  | Some h -> Ipc.Committed h
  | None ->
    let settle state =
      Mutex.lock t.tokens_mu;
      (match state with
       | Some h -> Hashtbl.replace t.tokens token (Committed_at h)
       | None -> Hashtbl.remove t.tokens token);
      Condition.broadcast t.token_settled;
      Mutex.unlock t.tokens_mu
    in
    let writes =
      List.map (fun (k, v) -> Spitz_ledger.Ledger.Put (k, v)) puts
      @ List.map (fun k -> Spitz_ledger.Ledger.Delete k) deletes
    in
    (match Db.commit t.db ~statements:[ token_prefix ^ token ] ~reads writes with
     | h ->
       settle (Some h);
       Ipc.Committed h
     | exception e ->
       settle None;
       raise e)

(* Every pinned read names its block; pinning the head is lock-free. A
   height out of range raises [Invalid_argument], answered as [Error]; one
   below the horizon — or whose instance the horizon passes while the read
   walks it — raises [Db.Below_horizon], answered in kind so the client
   can pin a newer block. A log stopped by an I/O error ([Wal.Failed])
   answers every later [Apply] with [Error]. *)
let pin db height = Option.get (Db.snapshot ~height db)

(* A verified read's proof stays a ledger value until it is written into
   the connection's writer: no proof string is built. *)
type answer = (Db.L.read_proof, Db.L.batch_read_proof) Ipc.answer

let serve t (req : Ipc.request) : answer =
  let db = t.db in
  match req with
  | Ipc.Get k -> Ipc.Value (Db.get db k)
  | Ipc.Range (lo, hi) -> Ipc.Entries (Db.range db ~lo ~hi)
  | Ipc.GetBatch (height, keys) ->
    let values, proof = Db.Snapshot.get_batch_verified (pin db height) keys in
    Ipc.BatchProof (values, proof)
  | Ipc.SnapGet (height, k) ->
    let value, proof = Db.Snapshot.get_verified (pin db height) k in
    Ipc.ValueProof (value, Some proof)
  | Ipc.SnapRange (height, lo, hi) ->
    let entries, proof = Db.Snapshot.range_verified (pin db height) ~lo ~hi in
    Ipc.EntriesProof (entries, Some proof)
  | Ipc.Anchor known -> anchor db known
  | Ipc.Apply { token; puts; deletes } -> apply t ~token ~reads:[] ~puts ~deletes
  | Ipc.Apply_if { token; reads; puts; deletes } -> apply t ~token ~reads ~puts ~deletes
  | Ipc.Receipts height ->
    let ledger = Db.ledger db in
    Ipc.ReceiptList
      (List.map Db.L.encode_receipt (Db.L.write_receipts ledger ~height))

(* Anything a single bad request can provoke becomes an [Error] answer (a
   read below the horizon, a [Below_horizon] one; a conditional Apply whose
   read set failed, a [Conflict] one); only a framing loss or a dead peer
   ends the connection. Whatever [write] put in [out] before it
   raised is dropped first, so the frame holds exactly that answer. *)
let respond out write =
  Wire.clear out;
  let failed (answer : Ipc.response) =
    Wire.clear out;
    Ipc.write_response out answer
  in
  try write out with
  | Db.Below_horizon { horizon; _ } -> failed (Ipc.Below_horizon horizon)
  | Db.Conflict { key; height } -> failed (Ipc.Conflict { key; height })
  | Wal.Failed msg -> failed (Ipc.Error msg)
  | Wire.Malformed msg -> failed (Ipc.Error msg)
  | Invalid_argument msg -> failed (Ipc.Error msg)
  | Not_found -> failed (Ipc.Error "not found")
  | Failure msg -> failed (Ipc.Error msg)

let write_answer = Ipc.write_answer ~read:Db.L.write_read_proof ~batch:Db.L.write_batch_proof

(* --- connection handling --- *)

let register_conn t fd =
  let id = Atomic.fetch_and_add t.next_conn 1 in
  Mutex.lock t.conns_mu;
  Hashtbl.replace t.conns id fd;
  Mutex.unlock t.conns_mu;
  (* accepted while [stop] half-closed the others: half-close it too *)
  if Atomic.get t.stopping then
    (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ());
  id

let unregister_conn t id =
  Mutex.lock t.conns_mu;
  Hashtbl.remove t.conns id;
  Mutex.unlock t.conns_mu

let handle t fd =
  let continue = ref true in
  (* per-connection reusable buffers: the frame scratch the request is read
     into and the answer framed from, and the writer the answer is encoded
     in — one thread serves this connection, so no locking; both keep at
     most [Frame.max_retained] bytes between requests *)
  let scratch = Frame.scratch () in
  let out = Wire.writer ~size:1024 () in
  while !continue do
    match Frame.read_slice scratch fd with
    | exception Frame.Closed -> continue := false
    | exception End_of_file ->
      (* torn frame: the peer died mid-frame *)
      Atomic.incr t.c_malformed;
      continue := false
    | exception Wire.Malformed _ ->
      (* bad length header or CRC: framing is lost, drop the connection *)
      Atomic.incr t.c_malformed;
      continue := false
    | exception Unix.Unix_error _ -> continue := false
    | payload -> (
      ignore (Atomic.fetch_and_add t.c_bytes_in (Slice.length payload));
      Atomic.incr t.c_requests;
      (* the request is decoded out of the scratch before the answer is
         framed in it *)
      (match Ipc.decode_request_slice payload with
       | req -> respond out (fun out -> write_answer out (serve t req))
       | exception Wire.Malformed msg ->
         (* frame intact, payload garbage: reject and keep serving *)
         Atomic.incr t.c_malformed;
         Wire.clear out;
         Ipc.write_response out (Ipc.Error msg));
      (* frame straight from the writer's buffer: no response string, no
         header+payload concatenation *)
      ignore (Atomic.fetch_and_add t.c_bytes_out (Wire.length out));
      match Frame.write_slices ~scratch fd [ Wire.view out ] with
      | () -> Slice.Writer.clear_within out Frame.max_retained
      | exception (Unix.Unix_error _ | Invalid_argument _) -> continue := false)
  done

(* The handlers one accept loop started: how many still run, and those that
   finished since the loop last joined them. *)
type handlers = {
  mu : Mutex.t;
  idle : Condition.t; (* signalled as each handler finishes *)
  mutable live : int;
  mutable finished : Thread.t list;
}

let handle_conn t hs (id, fd) =
  Fun.protect
    ~finally:(fun () ->
      unregister_conn t id;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Atomic.decr t.c_active;
      Mutex.lock hs.mu;
      hs.live <- hs.live - 1;
      hs.finished <- Thread.self () :: hs.finished;
      Condition.signal hs.idle;
      Mutex.unlock hs.mu)
    (fun () -> handle t fd)

(* Join the handlers that have finished; with [wait], first wait until none
   is left running. *)
let reap ?(wait = false) hs =
  Mutex.lock hs.mu;
  while wait && hs.live > 0 do
    Condition.wait hs.idle hs.mu
  done;
  let finished = hs.finished in
  hs.finished <- [];
  Mutex.unlock hs.mu;
  List.iter Thread.join finished

(* One accept loop per accept domain. The listen fd is non-blocking and
   shared: the loop selects on it and on the stop pipe with no timeout (a
   blocked [accept] on a closed fd never wakes on Linux), and a losing
   racer simply sees EAGAIN. Each pass joins the handler threads that
   finished, so the loop holds no more threads than were live at its last
   pass, and on stop it waits for the rest before it returns: a domain ends with
   no handler thread of its own still running. *)
let accept_loop t =
  let hs = { mu = Mutex.create (); idle = Condition.create (); live = 0; finished = [] } in
  while not (Atomic.get t.stopping) do
    reap hs;
    if Atomic.get t.c_active >= t.cfg.max_connections then Thread.delay 0.002
    else
      match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | ready, _, _ when List.mem t.wake_r ready -> ()
      | _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED | Unix.EINTR), _, _)
          ->
          ()
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.set t.stopping true
        | fd, _ ->
          Unix.clear_nonblock fd;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          Atomic.incr t.c_accepted;
          Atomic.incr t.c_active;
          let id = register_conn t fd in
          Mutex.lock hs.mu;
          hs.live <- hs.live + 1;
          Mutex.unlock hs.mu;
          ignore (Thread.create (handle_conn t hs) (id, fd)))
      | exception Unix.Unix_error _ -> Thread.delay 0.01
  done;
  reap ~wait:true hs

let start ?(config = default_config) db =
  if config.accept_domains < 1 then invalid_arg "Server.start: accept_domains must be >= 1";
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen listen_fd config.backlog;
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let t =
    {
      db;
      cfg = config;
      listen_fd;
      bound_port;
      stopping = Atomic.make false;
      wake_r;
      wake_w;
      driver = None;
      domains = [];
      conns = Hashtbl.create 64;
      conns_mu = Mutex.create ();
      next_conn = Atomic.make 0;
      tokens = Hashtbl.create 64;
      tokens_mu = Mutex.create ();
      token_settled = Condition.create ();
      c_accepted = Atomic.make 0;
      c_active = Atomic.make 0;
      c_requests = Atomic.make 0;
      c_bytes_in = Atomic.make 0;
      c_bytes_out = Atomic.make 0;
      c_malformed = Atomic.make 0;
    }
  in
  rebuild_tokens db t.tokens;
  t.domains <- List.init (config.accept_domains - 1) (fun _ -> Domain.spawn (fun () -> accept_loop t));
  t.driver <- Some (Thread.create accept_loop t);
  t

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    ignore (Unix.single_write_substring t.wake_w "x" 0 1);
    (* Wake every handler blocked in a read: half-close the receive side so
       the current request still gets served and its response flushed. *)
    Mutex.lock t.conns_mu;
    Hashtbl.iter
      (fun _ fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
      t.conns;
    Mutex.unlock t.conns_mu;
    (match t.driver with Some th -> Thread.join th | None -> ());
    t.driver <- None;
    List.iter Domain.join t.domains;
    t.domains <- [];
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.listen_fd; t.wake_r; t.wake_w ]
  end
