open Spitz_crypto

(* Lock-striped LRU: the key space is split across 16 independent
   sub-caches by the first byte of the content address (SHA-256 output, so
   the spread is uniform and independent of [Hash.hash], which Hashtbl uses
   for bucket selection). Each stripe is the old design — a hash table into
   an intrusive doubly-linked recency list under its own mutex — so readers
   on different stripes never contend. Hits unlink + push-front; inserts
   evict from the stripe's tail. *)

type 'a entry = {
  key : Hash.t;
  value : 'a;
  mutable prev : 'a entry option; (* towards most recent *)
  mutable next : 'a entry option; (* towards least recent *)
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
}

type counters = {
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_evictions : int;
}

type 'a stripe = {
  cap : int; (* per-stripe capacity *)
  tbl : 'a entry Hash.Table.t;
  mutable head : 'a entry option; (* most recently used *)
  mutable tail : 'a entry option; (* least recently used *)
  m : Mutex.t;
  st : counters;
}

type 'a t = {
  total_cap : int;
  stripes : 'a stripe array;
}

let n_stripes = 16

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Node_cache.create: capacity must be >= 1";
  (* Distribute capacity; ceil so the total never undershoots the request. *)
  let per_stripe = (capacity + n_stripes - 1) / n_stripes in
  let mk _ =
    { cap = per_stripe;
      tbl = Hash.Table.create (min per_stripe 4096);
      head = None; tail = None;
      m = Mutex.create ();
      st = { c_hits = 0; c_misses = 0; c_evictions = 0 } }
  in
  { total_cap = per_stripe * n_stripes; stripes = Array.init n_stripes mk }

let capacity t = t.total_cap

let stripe_of t h = t.stripes.(Char.code (Hash.to_raw h).[0] land (n_stripes - 1))

(* Take every stripe lock (in index order, so concurrent full-cache
   operations cannot deadlock), run [f], release in reverse. This is what
   makes [stats] a consistent snapshot rather than a torn per-stripe read. *)
let with_all_stripes t f =
  Array.iter (fun s -> Mutex.lock s.m) t.stripes;
  Fun.protect ~finally:(fun () ->
      for i = Array.length t.stripes - 1 downto 0 do Mutex.unlock t.stripes.(i).m done)
    f

let length t =
  with_all_stripes t (fun () ->
      Array.fold_left (fun acc s -> acc + Hash.Table.length s.tbl) 0 t.stripes)

let stats t =
  with_all_stripes t (fun () ->
      Array.fold_left
        (fun acc s ->
           { hits = acc.hits + s.st.c_hits;
             misses = acc.misses + s.st.c_misses;
             evictions = acc.evictions + s.st.c_evictions })
        { hits = 0; misses = 0; evictions = 0 } t.stripes)

let reset_stats t =
  with_all_stripes t (fun () ->
      Array.iter
        (fun s ->
           s.st.c_hits <- 0;
           s.st.c_misses <- 0;
           s.st.c_evictions <- 0)
        t.stripes)

let unlink s e =
  (match e.prev with Some p -> p.next <- e.next | None -> s.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> s.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front s e =
  e.next <- s.head;
  (match s.head with Some h -> h.prev <- Some e | None -> s.tail <- Some e);
  s.head <- Some e

let evict_tail s =
  match s.tail with
  | None -> ()
  | Some e ->
    unlink s e;
    Hash.Table.remove s.tbl e.key;
    s.st.c_evictions <- s.st.c_evictions + 1

let find t h =
  let s = stripe_of t h in
  Mutex.lock s.m;
  let r =
    match Hash.Table.find_opt s.tbl h with
    | Some e ->
      s.st.c_hits <- s.st.c_hits + 1;
      unlink s e;
      push_front s e;
      Some e.value
    | None ->
      s.st.c_misses <- s.st.c_misses + 1;
      None
  in
  Mutex.unlock s.m;
  r

let add t h v =
  let s = stripe_of t h in
  Mutex.lock s.m;
  (match Hash.Table.find_opt s.tbl h with
   | Some e -> unlink s e; Hash.Table.remove s.tbl e.key
   | None -> ());
  let e = { key = h; value = v; prev = None; next = None } in
  Hash.Table.replace s.tbl h e;
  push_front s e;
  if Hash.Table.length s.tbl > s.cap then evict_tail s;
  Mutex.unlock s.m

let take t h =
  let s = stripe_of t h in
  Mutex.lock s.m;
  let r =
    match Hash.Table.find_opt s.tbl h with
    | Some e ->
      s.st.c_hits <- s.st.c_hits + 1;
      unlink s e;
      Hash.Table.remove s.tbl h;
      Some e.value
    | None ->
      s.st.c_misses <- s.st.c_misses + 1;
      None
  in
  Mutex.unlock s.m;
  r

let find_or_add t h ~load =
  match find t h with
  | Some v -> v
  | None ->
    let v = load () in
    add t h v;
    v

let clear t =
  with_all_stripes t (fun () ->
      Array.iter
        (fun s ->
           Hash.Table.reset s.tbl;
           s.head <- None;
           s.tail <- None)
        t.stripes)
