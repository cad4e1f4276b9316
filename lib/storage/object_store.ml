open Spitz_crypto

type stats = {
  mutable puts : int;            (* put requests *)
  mutable gets : int;            (* get requests *)
  mutable dedup_hits : int;      (* puts that found the object already stored *)
  mutable physical_bytes : int;  (* bytes of unique stored objects *)
  mutable logical_bytes : int;   (* bytes handed to a put since [create] *)
}

exception Corrupt of string

(* The store is sharded by the first byte of the content address so that
   reader domains walking index nodes do not contend with committers (or
   each other) on one table lock — and, just as important, so the stdlib
   Hashtbls are never mutated and read concurrently, which is unsafe under
   OCaml 5 (a resize racing a lookup can crash or misread). Each shard owns
   one table, address -> bytes, a mutex, and its slice of the counters;
   [stats] merges the slices with every shard locked, so the numbers are a
   consistent cut.

   A store that tracks index nodes ([track_index_nodes]) also keeps, per
   shard, the index class: address -> the block that last created it, for
   each stored object that only an index put ([put_node]) ever stored. It
   is what makes reclaiming a superseded node exact: a node is deleted only
   while it is in the class and was not created again since it was
   superseded, and any other put of the same bytes (a value, a block body,
   a blob part) takes the address out of the class for good. The class
   holds only live index nodes — the head instance's and those a retention
   window still keeps — and is never read by [dump], so the object table
   and everything written from it are unchanged. *)

(* An index-class entry: the block that last created the node (-1: before
   any block still to come) and its size, for the byte gauge. *)
type node = { mutable created : int; len : int }

(* The class is keyed by SHA-256 outputs, uniform in every bit, so four of
   their bytes are as good a hash as hashing all 32 — and cheaper, on a
   table every commit touches. Byte 0 picks the shard; bytes 4..7 are the
   bucket. The class is never iterated into anything persisted, so its
   order is free. *)
module Class = Hashtbl.Make (struct
    type t = Hash.t
    let equal = Hash.equal
    let hash h = Int32.to_int (String.get_int32_le (Hash.to_raw h) 4) land max_int
  end)

type shard = {
  objects : string Hash.Table.t;
  nodes : node Class.t; (* the index class *)
  m : Mutex.t;
  sc : stats; (* this shard's slice of the counters *)
}

type t = {
  shards : shard array;
  mask : int;
  mutable tracking : bool; (* whether [put_node] classifies what it puts *)
}

let shard_count = 16

let create () =
  let mk _ =
    { objects = Hash.Table.create 1024;
      nodes = Class.create 64;
      m = Mutex.create ();
      sc = { puts = 0; gets = 0; dedup_hits = 0; physical_bytes = 0; logical_bytes = 0 } }
  in
  { shards = Array.init shard_count mk;
    mask = shard_count - 1;
    tracking = false }

let shard_of t h = t.shards.(Char.code (Hash.to_raw h).[0] land t.mask)

let with_shard s f =
  Mutex.lock s.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.m) f

(* Locks taken in index order so concurrent whole-store operations cannot
   deadlock. *)
let with_all_shards t f =
  Array.iter (fun s -> Mutex.lock s.m) t.shards;
  Fun.protect ~finally:(fun () ->
      for i = Array.length t.shards - 1 downto 0 do Mutex.unlock t.shards.(i).m done)
    f

let stats t =
  with_all_shards t (fun () ->
      let acc = { puts = 0; gets = 0; dedup_hits = 0; physical_bytes = 0; logical_bytes = 0 } in
      Array.iter
        (fun s ->
           acc.puts <- acc.puts + s.sc.puts;
           acc.gets <- acc.gets + s.sc.gets;
           acc.dedup_hits <- acc.dedup_hits + s.sc.dedup_hits;
           acc.physical_bytes <- acc.physical_bytes + s.sc.physical_bytes;
           acc.logical_bytes <- acc.logical_bytes + s.sc.logical_bytes)
        t.shards;
      acc)

let object_count t =
  with_all_shards t (fun () ->
      Array.fold_left (fun acc s -> acc + Hash.Table.length s.objects) 0 t.shards)

(* A put that is not an index node's: its address leaves the index class,
   so it is never reclaimed. Caller holds the shard's lock. *)
let keep_locked t s h = if t.tracking then Class.remove s.nodes h

(* [h] is [data]'s content address, already computed by the caller. *)
let put_hashed t h data =
  let s = shard_of t h in
  with_shard s (fun () ->
      s.sc.puts <- s.sc.puts + 1;
      s.sc.logical_bytes <- s.sc.logical_bytes + String.length data;
      keep_locked t s h;
      if Hash.Table.mem s.objects h then s.sc.dedup_hits <- s.sc.dedup_hits + 1
      else begin
        Hash.Table.replace s.objects h data;
        s.sc.physical_bytes <- s.sc.physical_bytes + String.length data
      end);
  h

let put t data = put_hashed t (Hash.of_string data) data

(* Store an encoder's output without materializing it first: the content
   address is hashed straight from the writer's buffer, and the bytes are
   copied out into an owned string only when the object turns out to be new —
   a dedup hit (the common case for shared subtree nodes) costs no copy at
   all. The writer is not consumed; the caller may [clear] and reuse it.
   With [epoch] the put is an index node's, created by block [epoch]: on a
   tracking store a new object enters the index class, and one already in
   it is marked created again; an object stored by any other put stays out
   of it. *)
let put_writer_as t w ~epoch =
  let len = Slice.Writer.length w in
  let h = Hash.of_bytes_sub (Slice.Writer.unsafe_bytes w) ~pos:0 ~len in
  let s = shard_of t h in
  with_shard s (fun () ->
      s.sc.puts <- s.sc.puts + 1;
      s.sc.logical_bytes <- s.sc.logical_bytes + len;
      if Hash.Table.mem s.objects h then begin
        s.sc.dedup_hits <- s.sc.dedup_hits + 1;
        if t.tracking then
          if epoch < 0 then Class.remove s.nodes h
          else
            match Class.find s.nodes h with
            | n -> n.created <- epoch
            | exception Not_found -> ()
      end
      else begin
        Hash.Table.replace s.objects h (Slice.Writer.contents w);
        (* a new object is in no class entry: the class holds stored
           objects only *)
        if t.tracking && epoch >= 0 then Class.add s.nodes h { created = epoch; len };
        s.sc.physical_bytes <- s.sc.physical_bytes + len
      end);
  h

let put_writer t w = put_writer_as t w ~epoch:(-1)

let put_node t ~epoch w =
  if epoch < 0 then invalid_arg "Object_store.put_node: negative epoch";
  put_writer_as t w ~epoch

(* --- the index class --- *)

let track_index_nodes t = t.tracking <- true

(* Classify a stored object as an index node created before any block
   still to come: a reopen adopts the head instance it restored this way. *)
let adopt_node t h =
  if t.tracking then begin
    let s = shard_of t h in
    with_shard s (fun () ->
        match Hash.Table.find_opt s.objects h with
        | Some data -> Class.replace s.nodes h { created = -1; len = String.length data }
        | None -> ())
  end

let keep t h =
  if t.tracking then begin
    let s = shard_of t h in
    with_shard s (fun () -> Class.remove s.nodes h)
  end

(* Delete [h] if it is an index node no block created at or after
   [superseded_at] — the block whose batch superseded it — and return the
   bytes freed (0: kept). One created again since is live in a newer
   instance, and one out of the class is also something other than a
   node. *)
let reclaim_node t h ~superseded_at =
  let s = shard_of t h in
  (* nothing below raises: no [with_shard] closure on this per-node path *)
  Mutex.lock s.m;
  let freed =
    match Class.find s.nodes h with
    | n when n.created < superseded_at ->
      Class.remove s.nodes h;
      Hash.Table.remove s.objects h;
      s.sc.physical_bytes <- s.sc.physical_bytes - n.len;
      n.len
    | _ -> 0
    | exception Not_found -> 0
  in
  Mutex.unlock s.m;
  freed

let index_node_count t =
  with_all_shards t (fun () ->
      Array.fold_left (fun acc s -> acc + Class.length s.nodes) 0 t.shards)

let get t h =
  let s = shard_of t h in
  with_shard s (fun () ->
      s.sc.gets <- s.sc.gets + 1;
      Hash.Table.find_opt s.objects h)

let get_exn t h =
  match get t h with
  | Some data -> data
  | None -> raise Not_found

let mem t h =
  let s = shard_of t h in
  with_shard s (fun () -> Hash.Table.mem s.objects h)

(* Large values are stored chunked: each chunk is a content-addressed object
   and the blob itself is a descriptor object listing the chunk hashes. Edits
   to a large value therefore share all untouched chunks with prior versions. *)

let descriptor_magic = "SPITZBLOB1"

let encode_descriptor hashes =
  let buf = Buffer.create (String.length descriptor_magic + (List.length hashes * Hash.size)) in
  Buffer.add_string buf descriptor_magic;
  List.iter (fun h -> Buffer.add_string buf (Hash.to_raw h)) hashes;
  Buffer.contents buf

let looks_like_descriptor data = String.starts_with ~prefix:descriptor_magic data

let decode_descriptor data =
  let prefix_len = String.length descriptor_magic in
  if not (looks_like_descriptor data) then None
  else begin
    let body = String.sub data prefix_len (String.length data - prefix_len) in
    if String.length body mod Hash.size <> 0 then None
    else begin
      let n = String.length body / Hash.size in
      let hashes = List.init n (fun i -> Hash.of_raw (String.sub body (i * Hash.size) Hash.size)) in
      Some hashes
    end
  end

(* Values above the average chunk size are chunked so that local edits
   share all untouched pieces; values that would be mistaken for a
   descriptor are also stored via the descriptor path, so decoding stays
   unambiguous. Every other value is one raw object under its own hash. *)
let stores_raw data =
  String.length data <= Chunk.default_params.Chunk.avg_size && not (looks_like_descriptor data)

let put_blob ?hash t data =
  (* a raw value is stored under its known [hash] when the caller has one,
     so it is hashed once per write *)
  if stores_raw data
  then match hash with Some h -> put_hashed t h data | None -> put t data
  else begin
    let chunks = Chunk.split data in
    let hashes = List.map (put t) chunks in
    put t (encode_descriptor hashes)
  end

let get_blob t h =
  match get t h with
  | None -> None
  | Some data ->
    (match decode_descriptor data with
     | None -> Some data
     | Some hashes ->
       let buf = Buffer.create 4096 in
       let ok =
         List.for_all
           (fun ch ->
              match get t ch with
              | Some chunk -> Buffer.add_string buf chunk; true
              | None -> false)
           hashes
       in
       if ok then Some (Buffer.contents buf) else None)

let get_blob_exn t h =
  match get_blob t h with
  | Some data -> data
  | None -> raise Not_found

(* Content addresses a blob descriptor references ([] for raw values and
   unknown addresses) — a checkpoint must keep a blob's chunks alive. *)
let blob_parts t h =
  match get t h with
  | None -> []
  | Some data -> Option.value ~default:[] (decode_descriptor data)

(* Add every blob descriptor in the store to a live set, with its chunks.
   A value's block entry records its content hash, which is the address of
   a raw value but not of a chunked one's descriptor; every chunked value
   is live, so keeping every descriptor keeps each one without finding it
   by content. One pass per shard under that shard's lock; descriptors are
   rare. *)
let mark_blobs t live =
  Array.iter
    (fun s ->
       let blobs =
         with_shard s (fun () ->
             Hash.Table.fold
               (fun h data acc ->
                  match decode_descriptor data with Some ps -> (h, ps) :: acc | None -> acc)
               s.objects [])
       in
       List.iter
         (fun (h, ps) ->
            Hash.Table.replace live h ();
            List.iter (fun p -> Hash.Table.replace live p ()) ps)
         blobs)
    t.shards

(* --- persistence: length-prefixed object stream --- *)

let fold t f init =
  with_all_shards t (fun () ->
      Array.fold_left
        (fun acc s -> Hash.Table.fold f s.objects acc)
        init t.shards)

(* A restore is not a put: it adds to [objects] and [physical_bytes] only. *)
let restore_object t data =
  let h = Hash.of_string data in
  let s = shard_of t h in
  with_shard s (fun () ->
      if not (Hash.Table.mem s.objects h) then begin
        Hash.Table.replace s.objects h data;
        s.sc.physical_bytes <- s.sc.physical_bytes + String.length data
      end)

let write_varint oc n =
  let rec go n =
    if n < 0x80 then output_char oc (Char.chr n)
    else begin
      output_char oc (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  if n < 0 then invalid_arg "Object_store.write_varint: negative";
  go n

let dump ~live t oc =
  (* collect a reference snapshot of each shard under its own (brief) lock,
     then write the stream with no locks held: the file write is the long
     part of a checkpoint, and holding all shards across it would stall
     every concurrent reader and committer. Objects are immutable and
     content-addressed, so a put racing the collection merely lands in or
     misses the snapshot whole — the stream and its object-count prefix
     always agree because both come from the collected lists. Only the
     objects [live] names are collected.

     A record is [varint length | bytes | varint count]. The count is a
     field of the format, not of the store: it is written as 1 and ignored
     on read, so snapshots written when it was a reference count still
     load and the record layout stays byte-compatible. *)
  let collected =
    Array.map
      (fun s ->
         with_shard s (fun () ->
             Hash.Table.fold
               (fun h data acc -> if Hash.Table.mem live h then data :: acc else acc)
               s.objects []))
      t.shards
  in
  let count = Array.fold_left (fun acc l -> acc + List.length l) 0 collected in
  write_varint oc count;
  Array.iter
    (List.iter (fun data ->
         write_varint oc (String.length data);
         output_string oc data;
         write_varint oc 1))
    collected

(* The stream is read in one call and parsed out of that buffer, so a
   varint byte costs no channel call.

   A varint fits OCaml's 63-bit int in at most 9 groups of 7 bits; a stream
   with more continuation bytes is malformed, and letting the shift run past
   the word size is undefined [lsl] behaviour. A decoded value that came out
   negative overflowed bit 62 — equally malformed. An object's length is
   bounded by the bytes after it before anything is allocated for it. *)
let restore t ic =
  let data =
    try really_input_string ic (in_channel_length ic - pos_in ic)
    with End_of_file -> raise (Corrupt "object stream truncated")
  in
  let stop = String.length data in
  let pos = ref 0 in
  let read_varint () =
    let rec go shift acc =
      if shift > 56 then raise (Corrupt "varint longer than 9 bytes");
      if !pos >= stop then raise (Corrupt "truncated varint");
      let b = Char.code (String.unsafe_get data !pos) in
      incr pos;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    let n = go 0 0 in
    if n < 0 then raise (Corrupt "varint overflows int") else n
  in
  let n = read_varint () in
  for _ = 1 to n do
    let len = read_varint () in
    let remaining = stop - !pos in
    if len > remaining then
      raise (Corrupt (Printf.sprintf "object length %d exceeds remaining %d bytes" len remaining));
    restore_object t (String.sub data !pos len);
    pos := !pos + len;
    ignore (read_varint () : int)
  done
