open Spitz_crypto

(* Structurally Invariant and Reusable Indexes (SIRI): the family of
   authenticated indexes the Spitz ledger draws from. Every implementation is
   persistent — nodes live in a content-addressed store, so index versions
   share all untouched nodes — and self-verifying: proofs carry the serialized
   node bytes, and the verifier recomputes every content address from the root
   digest down without any access to the store. *)

type proof = { nodes : string list }

let proof_size p = List.fold_left (fun acc n -> acc + String.length n) 0 p.nodes

(* Proof nodes keyed by their content address, as the verifier sees them. *)
let proof_index p =
  List.fold_left (fun m n -> Hash.Map.add (Hash.of_string n) n m) Hash.Map.empty p.nodes

(* Deduplicating union: each distinct node kept once, in first-seen order —
   what a batched proof is, relative to its per-key constituents. *)
let union proofs =
  let seen = Hashtbl.create 64 in
  let nodes = ref [] in
  List.iter
    (fun p ->
       List.iter
         (fun n ->
            if not (Hashtbl.mem seen n) then begin
              Hashtbl.replace seen n ();
              nodes := n :: !nodes
            end)
         p.nodes)
    proofs;
  { nodes = List.rev !nodes }

(* Wire codec: a proof is a length-prefixed list of node byte strings. *)
let write_proof buf p = Spitz_storage.Wire.write_list buf Spitz_storage.Wire.write_string p.nodes

let read_proof r = { nodes = Spitz_storage.Wire.read_list r Spitz_storage.Wire.read_string }

let encode_proof p =
  let buf = Spitz_storage.Wire.writer () in
  write_proof buf p;
  Spitz_storage.Wire.contents buf

let decode_proof data = Spitz_storage.Wire.decode "Siri.decode_proof" read_proof data

let proof_wire_bytes p = String.length (encode_proof p)

module type S = sig
  type t

  val name : string

  val create : Spitz_storage.Object_store.t -> t
  (** Empty index backed by the given node store. *)

  val at_root : Spitz_storage.Object_store.t -> Hash.t -> count:int -> t
  (** Reopen the index version committed to by a root digest whose nodes are
      in the store ([Hash.null] = empty). [count] restores {!cardinal};
      persistence layers record it alongside the root. *)

  val store : t -> Spitz_storage.Object_store.t

  val root_digest : t -> Hash.t
  (** Digest committing to the entire contents. [Hash.null] when empty. *)

  val cardinal : t -> int

  val insert : t -> string -> string -> t
  (** Persistent insert (or overwrite): the previous version remains valid and
      shares all untouched nodes with the new one. *)

  val insert_batch : t -> (string * string) list -> t
  (** [insert] of every pair, in list order (a later duplicate key wins):
      the same root digest and cardinal as folding {!insert} over the list.
      The store gains only nodes reachable from the returned root — no
      intermediate version of a node is stored. *)

  val insert_batch_at : t -> epoch:int -> (string * string) list -> t * Hash.t list
  (** {!insert_batch} for block [epoch] of a ledger that reclaims what later
      versions supersede: every node stored is put as one that block
      created ({!Spitz_storage.Object_store.put_node}), and the stored
      nodes of [t] the batch rewrote are returned with the result — each
      reachable from no later version unless rewritten to the same bytes or
      created again. An index that does not report them returns [[]]. *)

  val get : t -> string -> string option

  val get_with_proof : t -> string -> string option * proof
  (** Result plus a proof of presence (or absence) under [root_digest]. *)

  val prove_batch : t -> string list -> string option list * proof
  (** Batched {!get_with_proof}: values for the keys (in input order) plus
      {e one} proof covering all of them. Path proofs are gathered in a
      single traversal and shared upper nodes are encoded exactly once, so
      the batched proof is never larger — and for co-anchored keys strictly
      smaller — than the union of per-key proofs. *)

  val range : t -> lo:string -> hi:string -> (string * string) list
  (** Entries with [lo <= key <= hi], in key order. *)

  val range_with_proof : t -> lo:string -> hi:string -> (string * string) list * proof

  val iter : t -> (string -> string -> unit) -> unit

  val verify_get : digest:Hash.t -> key:string -> value:string option -> proof -> bool
  (** Client-side check that [value] is exactly what the index committed to by
      [digest] holds for [key] ([None] = proven absent). *)

  val verify_get_batch :
    digest:Hash.t -> items:(string * string option) list -> proof -> bool
  (** Batched {!verify_get}: check every (key, claimed value) pair against
      one shared proof. Each proof node is content-addressed (hashed) once
      and decoded at most once across the whole batch, instead of per key —
      this is where batched verification earns its throughput. True iff
      {e every} claim checks out. *)

  val verify_range :
    digest:Hash.t -> lo:string -> hi:string -> entries:(string * string) list ->
    proof -> bool
  (** Client-side check that [entries] is exactly the committed contents of
      [lo..hi] — sound against both additions and omissions. *)

  val extract_range :
    digest:Hash.t -> lo:string -> hi:string -> proof -> (string * string) list option
  (** Client-side recomputation of the committed contents of [lo..hi] from the
      proof alone; [None] if the proof does not check out against [digest].
      [verify_range] is [extract_range = Some entries]. *)

  val iter_nodes : Spitz_storage.Object_store.t -> Hash.t -> (Hash.t -> unit) -> unit
  (** Visit the content address of every node reachable from a root
      ([Hash.null] visits nothing). Used by a checkpoint's mark to
      compute the live set of the index instance it writes. *)
end
