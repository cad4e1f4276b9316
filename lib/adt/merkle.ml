open Spitz_crypto

(* Append-only binary Merkle tree in the RFC 6962 shape: the left subtree of
   a range covers the largest power of two smaller than the range. Levels are
   maintained incrementally, so appends cost O(log n) and the root is O(1) —
   the journal appends on every commit, so this matters. Inclusion and
   consistency proofs follow the RFC algorithms; verification recomputes
   roots from the proof alone, so a client needs no access to the tree. *)

type level = { mutable a : Hash.t array; mutable n : int }

type t = {
  mutable levels : level array; (* levels.(0) = leaf hashes *)
  mutable nlevels : int;
}

let new_level () = { a = Array.make 16 Hash.null; n = 0 }

let create () = { levels = [| new_level () |]; nlevels = 1 }

let size t = t.levels.(0).n

let empty_root = Hash.of_string ""

let level_push l h =
  if l.n = Array.length l.a then begin
    let bigger = Array.make (2 * l.n) Hash.null in
    Array.blit l.a 0 bigger 0 l.n;
    l.a <- bigger
  end;
  l.a.(l.n) <- h;
  l.n <- l.n + 1

let level_set l i h = if i = l.n then level_push l h else l.a.(i) <- h

let ensure_level t li =
  if li = t.nlevels then begin
    if li = Array.length t.levels then begin
      let bigger = Array.make (2 * li) (new_level ()) in
      Array.blit t.levels 0 bigger 0 li;
      t.levels <- bigger
    end;
    t.levels.(li) <- new_level ();
    t.nlevels <- li + 1
  end

(* Level-wise construction with the last odd node promoted unchanged — this
   produces exactly the RFC 6962 tree shape. Appending updates one node per
   level along the right spine. *)
let add_leaf_hash t h =
  let index = t.levels.(0).n in
  level_push t.levels.(0) h;
  let li = ref 0 and i = ref index in
  while t.levels.(!li).n > 1 do
    let l = t.levels.(!li) in
    let parent = !i / 2 in
    let v = if !i land 1 = 1 then Hash.node l.a.(!i - 1) l.a.(!i) else l.a.(!i) in
    ensure_level t (!li + 1);
    level_set t.levels.(!li + 1) parent v;
    incr li;
    i := parent
  done;
  index

let add_leaf t data = add_leaf_hash t (Hash.leaf data)

(* The tree [add_leaf_hash] builds from the same leaves, level by level:
   each node is hashed once (n - 1 hashes for n leaves) instead of
   re-hashing the right spine on every append. *)
let of_leaf_hashes hashes =
  let leaves = Array.of_list hashes in
  let n = Array.length leaves in
  if n = 0 then create ()
  else begin
    let levels = ref [ { a = leaves; n } ] in
    let cur = ref leaves in
    while Array.length !cur > 1 do
      let below = !cur in
      let m = Array.length below in
      let above =
        Array.init ((m + 1) / 2) (fun p ->
            if (2 * p) + 1 < m then Hash.node below.(2 * p) below.((2 * p) + 1) else below.(2 * p))
      in
      levels := { a = above; n = Array.length above } :: !levels;
      cur := above
    done;
    let levels = Array.of_list (List.rev !levels) in
    { levels; nlevels = Array.length levels }
  end

let of_leaves datas =
  let t = create () in
  List.iter (fun d -> ignore (add_leaf t d)) datas;
  t

let root t =
  if size t = 0 then empty_root else t.levels.(t.nlevels - 1).a.(0)

let leaf_hash t i =
  if i < 0 || i >= size t then invalid_arg "Merkle.leaf_hash: index out of bounds";
  t.levels.(0).a.(i)

(* largest power of two strictly smaller than n; n >= 2 *)
let pow2_below n =
  let rec go k = if k * 2 >= n then k else go (k * 2) in
  if n < 2 then invalid_arg "pow2_below" else go 1

(* Hash of the subtree covering leaves [lo, hi). With the promote-last
   construction the node at (level, i) covers exactly
   [i * 2^level, min ((i + 1) * 2^level, n)), so aligned blocks and aligned
   right remainders are read straight from the levels. *)
let range_hash t lo hi =
  let n = size t in
  let rec go lo hi =
    if hi - lo = 1 then t.levels.(0).a.(lo)
    else begin
      let rec find_level li block =
        if li >= t.nlevels then None
        else if lo mod block = 0 && hi = min (lo + block) n then Some t.levels.(li).a.(lo / block)
        else if block >= n then None
        else find_level (li + 1) (block * 2)
      in
      match find_level 0 1 with
      | Some h -> h
      | None ->
        let k = pow2_below (hi - lo) in
        Hash.node (go lo (lo + k)) (go (lo + k) hi)
    end
  in
  if lo < 0 || hi > n || lo >= hi then invalid_arg "Merkle.range_hash";
  go lo hi

(* The tree is append-only, so the first [m] leaves of the current tree are
   exactly the tree as it stood at size [m] — its root and audit paths are
   pure range-hash computations over today's levels. This is what lets a
   historical snapshot anchor proofs at the digest {e of its own height}
   rather than whatever the head happened to be at pin time. *)
let root_at t ~size:m =
  if m < 0 || m > size t then invalid_arg "Merkle.root_at";
  if m = 0 then empty_root else range_hash t 0 m

type inclusion_proof = Hash.t list (* sibling hashes, leaf level first *)

let prove_inclusion_at t index ~size:m =
  if m < 1 || m > size t then invalid_arg "Merkle.prove_inclusion_at";
  if index < 0 || index >= m then invalid_arg "Merkle.prove_inclusion_at: index";
  let rec go i lo hi =
    if hi - lo = 1 then []
    else begin
      let k = pow2_below (hi - lo) in
      if i < lo + k then go i lo (lo + k) @ [ range_hash t (lo + k) hi ]
      else go i (lo + k) hi @ [ range_hash t lo (lo + k) ]
    end
  in
  go index 0 m

let prove_inclusion t index =
  if index < 0 || index >= size t then invalid_arg "Merkle.prove_inclusion";
  prove_inclusion_at t index ~size:(size t)

let verify_inclusion ~root:expected ~size ~index ~leaf proof =
  if index < 0 || index >= size then false
  else begin
    let rec go i lo hi path =
      if hi - lo = 1 then Some (leaf, path)
      else begin
        let k = pow2_below (hi - lo) in
        if i < lo + k then
          match go i lo (lo + k) path with
          | Some (h, sib :: rest) -> Some (Hash.node h sib, rest)
          | _ -> None
        else
          match go i (lo + k) hi path with
          | Some (h, sib :: rest) -> Some (Hash.node sib h, rest)
          | _ -> None
      end
    in
    match go index 0 size proof with
    | Some (h, []) -> Hash.equal h expected
    | _ -> false
  end

(* --- Multiproofs: one proof for a set of leaves (CT-style). ---

   The prover and verifier walk the same recursion as single-leaf proofs, but
   carry the whole (sorted) index set: a subtree containing no target leaf is
   covered by one range hash, a subtree containing targets recurses, and a
   target leaf itself contributes nothing — the verifier supplies it. Shared
   internal nodes of co-anchored paths are therefore encoded exactly once,
   and the hash list is consumed in the deterministic left-to-right order the
   prover emitted it in. *)

type multiproof = Hash.t list

let prove_multi t indices =
  let n = size t in
  let sorted = List.sort_uniq compare indices in
  List.iter
    (fun i -> if i < 0 || i >= n then invalid_arg "Merkle.prove_multi: index out of bounds")
    sorted;
  if n = 0 then []
  else begin
    let rec go idxs lo hi =
      match idxs with
      | [] -> [ range_hash t lo hi ]
      | _ when hi - lo = 1 -> []
      | _ ->
        let k = pow2_below (hi - lo) in
        let left, right = List.partition (fun i -> i < lo + k) idxs in
        go left lo (lo + k) @ go right (lo + k) hi
    in
    go sorted 0 n
  end

let verify_multi ~root:expected ~size ~leaves proof =
  let sorted = List.sort_uniq compare leaves in
  (* the same index claimed with two different leaf hashes is inconsistent *)
  let rec distinct = function
    | (i, _) :: ((j, _) :: _ as rest) -> i <> j && distinct rest
    | _ -> true
  in
  if size = 0 then sorted = [] && proof = [] && Hash.equal expected empty_root
  else if sorted = [] then
    (match proof with [ h ] -> Hash.equal h expected | _ -> false)
  else if List.exists (fun (i, _) -> i < 0 || i >= size) sorted || not (distinct sorted) then
    false
  else begin
    let rec go idxs lo hi path =
      match idxs with
      | [] -> (match path with h :: rest -> Some (h, rest) | [] -> None)
      | [ (_, h) ] when hi - lo = 1 -> Some (h, path)
      | _ ->
        if hi - lo = 1 then None
        else begin
          let k = pow2_below (hi - lo) in
          let left, right = List.partition (fun (i, _) -> i < lo + k) idxs in
          match go left lo (lo + k) path with
          | None -> None
          | Some (hl, path) ->
            (match go right (lo + k) hi path with
             | None -> None
             | Some (hr, path) -> Some (Hash.node hl hr, path))
        end
    in
    match go sorted 0 size proof with
    | Some (h, []) -> Hash.equal h expected
    | _ -> false
  end

type consistency_proof = Hash.t list

(* RFC 6962 2.1.2. [m] is the old size, the tree holds the new state. *)
let prove_consistency t ~old_size:m =
  let n = size t in
  if m < 0 || m > n then invalid_arg "Merkle.prove_consistency";
  if m = 0 || m = n then []
  else begin
    let rec sub m lo n b =
      (* range [lo, lo+n), old boundary at lo+m with 0 < m <= n *)
      if m = n then (if b then [] else [ range_hash t lo (lo + n) ])
      else begin
        let k = pow2_below n in
        if m <= k then sub m lo k b @ [ range_hash t (lo + k) (lo + n) ]
        else sub (m - k) (lo + k) (n - k) false @ [ range_hash t lo (lo + k) ]
      end
    in
    sub m 0 n true
  end

let verify_consistency ~old_root ~old_size:m ~new_root ~new_size:n proof =
  if m < 0 || m > n then false
  else if m = 0 then proof = [] (* empty old tree is consistent with anything *)
  else if m = n then proof = [] && Hash.equal old_root new_root
  else begin
    (* Mirror of prove_consistency: recompute both roots from the proof. *)
    let rec go m n b path =
      if m = n then begin
        if b then Some (old_root, old_root, path)
        else match path with
          | h :: rest -> Some (h, h, rest)
          | [] -> None
      end
      else begin
        let k = pow2_below n in
        if m <= k then
          match go m k b path with
          | Some (o, nl, sib :: rest) -> Some (o, Hash.node nl sib, rest)
          | _ -> None
        else
          match go (m - k) (n - k) false path with
          | Some (o, nr, sib :: rest) -> Some (Hash.node sib o, Hash.node sib nr, rest)
          | _ -> None
      end
    in
    match go m n true proof with
    | Some (o, nw, []) -> Hash.equal o old_root && Hash.equal nw new_root
    | _ -> false
  end

(* --- Wire serialization: inclusion, consistency, and multiproofs all share
   the hash-list shape, so one codec covers the three. --- *)

module W = Spitz_storage.Wire

let write_proof buf hashes = W.write_hash_list buf hashes
let read_proof r = W.read_hash_list r

let encode_proof hashes =
  let buf = W.writer () in
  write_proof buf hashes;
  W.contents buf

let decode_proof data = W.decode "Merkle.decode_proof" read_proof data

let proof_bytes hashes = String.length (encode_proof hashes)
