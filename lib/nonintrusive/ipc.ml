open Spitz_storage

(* The one request/response vocabulary every system boundary in the repo
   speaks — the in-process non-intrusive boundary (paper Figure 3) and the
   TCP server (lib/server) share these codecs, so there is exactly one
   decoder for untrusted request bytes and exactly one for response bytes,
   both funneled through the [Wire.decode] Malformed contract.

   The vocabulary is the verifying session's nine verbs: writes are
   token-carrying [Apply] batches (idempotent, so a client may retry them)
   and [Apply_if] ones conditional on a read set; verified reads are
   pinned at a block height. The retired tags — blind writes 'P' 'D' 'C'
   'r', live-ledger proofs 'p' 'q', the 'u' acknowledgement — decode as [Wire.Malformed] like any unknown tag, so a
   server rejects them; they must not be reused for new verbs.

   The in-process [call] models the marshalling cost of such a boundary with
   no artificial sleeps: encode the request, "transfer" it, decode it on the
   other side, and the same again for the response — the real serialization
   work the paper attributes the non-intrusive design's overhead to. *)

type stats = {
  calls : int;
  bytes_out : int;
  bytes_in : int;
}

type t = {
  calls : int Atomic.t;
  bytes_out : int Atomic.t;
  bytes_in : int Atomic.t;
}

let create () =
  { calls = Atomic.make 0; bytes_out = Atomic.make 0; bytes_in = Atomic.make 0 }

let stats t : stats =
  {
    calls = Atomic.get t.calls;
    bytes_out = Atomic.get t.bytes_out;
    bytes_in = Atomic.get t.bytes_in;
  }

type request =
  | Get of string
  | Range of string * string
  | GetBatch of int * string list
  | SnapGet of int * string
  | SnapRange of int * string * string
  | Anchor of int
  | Apply of { token : string; puts : (string * string) list; deletes : string list }
  | Apply_if of {
      token : string;
      reads : (string * int) list;
      puts : (string * string) list;
      deletes : string list;
    }
  | Receipts of int

(* Key/value lists: an [Apply]'s puts and an [Entries] answer. *)
let write_entries buf entries =
  Wire.write_list buf (fun buf (k, v) -> Wire.write_string buf k; Wire.write_string buf v) entries

let read_entries r =
  Wire.read_list r (fun r ->
      let k = Wire.read_string r in
      let v = Wire.read_string r in
      (k, v))

(* A read set's heights start at -1 (read before the first block); the
   wire carries each plus one. *)
let write_reads buf reads =
  Wire.write_list buf
    (fun buf (k, h) ->
       Wire.write_string buf k;
       Wire.write_varint buf (h + 1))
    reads

let read_reads r =
  Wire.read_list r (fun r ->
      let k = Wire.read_string r in
      (k, Wire.read_varint r - 1))

let write_request buf req =
  match req with
  | Get k -> Wire.write_byte buf 'G'; Wire.write_string buf k
  | Range (lo, hi) -> Wire.write_byte buf 'R'; Wire.write_string buf lo; Wire.write_string buf hi
  | GetBatch (height, keys) ->
    Wire.write_byte buf 'B';
    Wire.write_varint buf height;
    Wire.write_list buf Wire.write_string keys
  | SnapGet (height, k) ->
    Wire.write_byte buf 'S';
    Wire.write_varint buf height;
    Wire.write_string buf k
  | SnapRange (height, lo, hi) ->
    Wire.write_byte buf 'N';
    Wire.write_varint buf height;
    Wire.write_string buf lo;
    Wire.write_string buf hi
  | Anchor known -> Wire.write_byte buf 'A'; Wire.write_varint buf known
  | Apply { token; puts; deletes } ->
    Wire.write_byte buf 'T';
    Wire.write_string buf token;
    write_entries buf puts;
    Wire.write_list buf Wire.write_string deletes
  | Apply_if { token; reads; puts; deletes } ->
    Wire.write_byte buf 'I';
    Wire.write_string buf token;
    write_reads buf reads;
    write_entries buf puts;
    Wire.write_list buf Wire.write_string deletes
  | Receipts height -> Wire.write_byte buf 'W'; Wire.write_varint buf height

let encode_request req =
  let buf = Wire.writer () in
  write_request buf req;
  Wire.contents buf

let read_request r =
  match Wire.read_byte r with
  | 'G' -> Get (Wire.read_string r)
  | 'R' ->
    let lo = Wire.read_string r in
    let hi = Wire.read_string r in
    Range (lo, hi)
  | 'B' ->
    let height = Wire.read_varint r in
    let keys = Wire.read_list r Wire.read_string in
    GetBatch (height, keys)
  | 'S' ->
    let height = Wire.read_varint r in
    let k = Wire.read_string r in
    SnapGet (height, k)
  | 'N' ->
    let height = Wire.read_varint r in
    let lo = Wire.read_string r in
    let hi = Wire.read_string r in
    SnapRange (height, lo, hi)
  | 'A' -> Anchor (Wire.read_varint r)
  | 'T' ->
    let token = Wire.read_string r in
    let puts = read_entries r in
    let deletes = Wire.read_list r Wire.read_string in
    Apply { token; puts; deletes }
  | 'I' ->
    let token = Wire.read_string r in
    let reads = read_reads r in
    let puts = read_entries r in
    let deletes = Wire.read_list r Wire.read_string in
    Apply_if { token; reads; puts; deletes }
  | 'W' -> Receipts (Wire.read_varint r)
  | c -> raise (Wire.Malformed (Printf.sprintf "Ipc: bad request tag %C" c))

let decode_request data = Wire.decode "Ipc.decode_request" read_request data

let decode_request_slice payload = Wire.decode_slice "Ipc.decode_request" read_request payload

(* --- responses ---

   Proofs travel in the ledger's own wire codecs, which the caller supplies,
   so the envelope stays independent of the SIRI functor instantiation;
   receipts travel as opaque encoded strings. *)

type anchor = {
  root : Spitz_crypto.Hash.t;
  size : int;
  consistency : Spitz_crypto.Hash.t list;
}

(* A verified read's answer carries its proof as a nested, length-prefixed
   encoding. The grammar below is written once, over any proof type: the
   server writes ledger proofs straight into its reused writer, a session
   decodes them straight from the frame bytes, and [response] — proofs as
   opaque strings — is the same grammar with the identity codec, so every
   path puts the same bytes on the wire. *)
type ('read, 'batch) answer =
  | Committed of int
  | Value of string option
  | Entries of (string * string) list
  | ValueProof of string option * 'read option
  | EntriesProof of (string * string) list * 'read option
  | BatchProof of string option list * 'batch
  | AnchorResp of anchor
  | ReceiptList of string list
  | Below_horizon of int
  | Conflict of { key : string; height : int }
  | Error of string

type response = (string, string) answer

let write_opt write buf v =
  match v with
  | None -> Wire.write_byte buf '\000'
  | Some v ->
    Wire.write_byte buf '\001';
    write buf v

let read_opt read r =
  match Wire.read_byte r with
  | '\000' -> None
  | '\001' -> Some (read r)
  | c -> raise (Wire.Malformed (Printf.sprintf "Ipc: bad option tag %C" c))

let write_value_opt = write_opt Wire.write_string
let read_value_opt = read_opt Wire.read_string

(* An optional proof: the option tag, then the nested encoding. *)
let write_proof_opt write = write_opt (fun buf p -> Wire.write_nested buf write p)
let read_proof_opt read = read_opt (fun r -> Wire.read_nested r read)

let write_answer ~read ~batch buf resp =
  match resp with
  | Committed h -> Wire.write_byte buf 'h'; Wire.write_varint buf h
  | Value v -> Wire.write_byte buf 'v'; write_value_opt buf v
  | Entries es -> Wire.write_byte buf 'e'; write_entries buf es
  | ValueProof (v, p) ->
    Wire.write_byte buf 'V';
    write_value_opt buf v;
    write_proof_opt read buf p
  | EntriesProof (es, p) ->
    Wire.write_byte buf 'E';
    write_entries buf es;
    write_proof_opt read buf p
  | BatchProof (vs, p) ->
    Wire.write_byte buf 'b';
    Wire.write_list buf write_value_opt vs;
    Wire.write_nested buf batch p
  | AnchorResp { root; size; consistency } ->
    Wire.write_byte buf 'a';
    Wire.write_hash buf root;
    Wire.write_varint buf size;
    Wire.write_hash_list buf consistency
  | ReceiptList rs -> Wire.write_byte buf 'w'; Wire.write_list buf Wire.write_string rs
  | Below_horizon horizon -> Wire.write_byte buf 'H'; Wire.write_varint buf horizon
  | Conflict { key; height } ->
    Wire.write_byte buf 'c';
    Wire.write_string buf key;
    Wire.write_varint buf height
  | Error msg -> Wire.write_byte buf 'x'; Wire.write_string buf msg

let read_answer ~read ~batch r =
  match Wire.read_byte r with
  | 'h' -> Committed (Wire.read_varint r)
  | 'v' -> Value (read_value_opt r)
  | 'e' -> Entries (read_entries r)
  | 'V' ->
    let v = read_value_opt r in
    let p = read_proof_opt read r in
    ValueProof (v, p)
  | 'E' ->
    let es = read_entries r in
    let p = read_proof_opt read r in
    EntriesProof (es, p)
  | 'b' ->
    let vs = Wire.read_list r read_value_opt in
    let p = Wire.read_nested r batch in
    BatchProof (vs, p)
  | 'a' ->
    let root = Wire.read_hash r in
    let size = Wire.read_varint r in
    let consistency = Wire.read_hash_list r in
    AnchorResp { root; size; consistency }
  | 'w' -> ReceiptList (Wire.read_list r Wire.read_string)
  | 'H' -> Below_horizon (Wire.read_varint r)
  | 'c' ->
    let key = Wire.read_string r in
    Conflict { key; height = Wire.read_varint r }
  | 'x' -> Error (Wire.read_string r)
  | c -> raise (Wire.Malformed (Printf.sprintf "Ipc: bad response tag %C" c))

let decode_answer ~read ~batch payload =
  Wire.decode_slice "Ipc.decode_response" (read_answer ~read ~batch) payload

(* The identity proof codec: an opaque proof string is its own encoding. *)
let write_opaque buf s = Slice.Writer.add_string buf s
let read_opaque r = Slice.to_string (Wire.read_raw r (Wire.remaining r))

let write_response buf resp = write_answer ~read:write_opaque ~batch:write_opaque buf resp

let encode_response resp =
  let buf = Wire.writer () in
  write_response buf resp;
  Wire.contents buf

let read_response r = read_answer ~read:read_opaque ~batch:read_opaque r

let decode_response data = Wire.decode "Ipc.decode_response" read_response data

(* Round-trip a request to [serve] through full marshalling on both sides.
   Counter updates are atomic, so concurrent callers (server handler threads,
   racing client sessions) never lose increments. *)
let call t req ~serve =
  Atomic.incr t.calls;
  let wire_req = encode_request req in
  ignore (Atomic.fetch_and_add t.bytes_out (String.length wire_req));
  let response = serve (decode_request wire_req) in
  let wire_resp = encode_response response in
  ignore (Atomic.fetch_and_add t.bytes_in (String.length wire_resp));
  decode_response wire_resp
