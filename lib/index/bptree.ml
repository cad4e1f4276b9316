(* Mutable in-memory B+-tree over string keys with linked leaves. This is the
   plain (non-authenticated) index: the baseline system's indexed views, the
   immutable KVS, and Spitz's non-ledger access path all use it. *)

let fanout = 32

type 'a node =
  | Leaf of 'a leaf
  | Internal of 'a internal

and 'a leaf = {
  mutable keys : string array;
  mutable values : 'a array;
  mutable next : 'a leaf option; (* right sibling, for range scans *)
}

and 'a internal = {
  mutable seps : string array;      (* seps.(i) = min key of children.(i) *)
  mutable children : 'a node array;
}

type 'a t = {
  mutable root : 'a node;
  mutable cardinal : int;
}

let create () = { root = Leaf { keys = [||]; values = [||]; next = None }; cardinal = 0 }

let cardinal t = t.cardinal

(* Rightmost position i such that a.(i) <= key, or -1. *)
let rank keys key =
  let lo = ref (-1) and hi = ref (Array.length keys) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if String.compare keys.(mid) key <= 0 then lo := mid else hi := mid
  done;
  !lo

(* Exact position of key, or None. *)
let find_exact keys key =
  let i = rank keys key in
  if i >= 0 && String.equal keys.(i) key then Some i else None

let child_for internal key =
  let i = rank internal.seps key in
  if i < 0 then 0 else i

let rec find_leaf node key =
  match node with
  | Leaf leaf -> leaf
  | Internal internal -> find_leaf internal.children.(child_for internal key) key

let get t key =
  let leaf = find_leaf t.root key in
  Option.map (fun i -> leaf.values.(i)) (find_exact leaf.keys key)

let mem t key =
  let leaf = find_leaf t.root key in
  find_exact leaf.keys key <> None

let array_insert a i x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

let array_remove a i =
  let n = Array.length a in
  Array.init (n - 1) (fun j -> if j < i then a.(j) else a.(j + 1))

(* Result of inserting into a subtree: optionally a new right sibling
   (sep, node) when the child split. *)
let rec insert_node node key value =
  match node with
  | Leaf leaf ->
    let i = rank leaf.keys key in
    if i >= 0 && String.equal leaf.keys.(i) key then begin
      leaf.values.(i) <- value;
      (None, false)
    end
    else begin
      leaf.keys <- array_insert leaf.keys (i + 1) key;
      leaf.values <- array_insert leaf.values (i + 1) value;
      if Array.length leaf.keys <= fanout then (None, true)
      else begin
        let mid = Array.length leaf.keys / 2 in
        let right =
          { keys = Array.sub leaf.keys mid (Array.length leaf.keys - mid);
            values = Array.sub leaf.values mid (Array.length leaf.values - mid);
            next = leaf.next }
        in
        leaf.keys <- Array.sub leaf.keys 0 mid;
        leaf.values <- Array.sub leaf.values 0 mid;
        leaf.next <- Some right;
        (Some (right.keys.(0), Leaf right), true)
      end
    end
  | Internal internal ->
    let ci = child_for internal key in
    (* a key below every separator enters child 0 and becomes its minimum;
       left stale, seps.(0) would sit above a later split of child 0 and
       put the separators out of order *)
    if String.compare key internal.seps.(0) < 0 then internal.seps.(0) <- key;
    let split, grew = insert_node internal.children.(ci) key value in
    (match split with
     | None -> ()
     | Some (sep, node) ->
       internal.seps <- array_insert internal.seps (ci + 1) sep;
       internal.children <- array_insert internal.children (ci + 1) node);
    if Array.length internal.children <= fanout then (None, grew)
    else begin
      let mid = Array.length internal.children / 2 in
      let right =
        { seps = Array.sub internal.seps mid (Array.length internal.seps - mid);
          children = Array.sub internal.children mid (Array.length internal.children - mid) }
      in
      let sep = internal.seps.(mid) in
      internal.seps <- Array.sub internal.seps 0 mid;
      internal.children <- Array.sub internal.children 0 mid;
      (Some (sep, Internal right), grew)
    end

let insert t key value =
  let split, grew = insert_node t.root key value in
  (match split with
   | None -> ()
   | Some (sep, right) ->
     let left_sep =
       match t.root with
       | Leaf { keys; _ } -> if Array.length keys > 0 then keys.(0) else ""
       | Internal { seps; _ } -> if Array.length seps > 0 then seps.(0) else ""
     in
     t.root <- Internal { seps = [| left_sep; sep |]; children = [| t.root; right |] });
  if grew then t.cardinal <- t.cardinal + 1

(* Deletion rewrites the leaf without rebalancing: the workloads this index
   serves are append-heavy, and lookups stay correct on sparse leaves. *)
let remove t key =
  let leaf = find_leaf t.root key in
  match find_exact leaf.keys key with
  | None -> ()
  | Some i ->
    leaf.keys <- array_remove leaf.keys i;
    leaf.values <- array_remove leaf.values i;
    t.cardinal <- t.cardinal - 1

(* Leftmost leaf whose key range can contain [key]. *)
let rec leaf_for node key =
  match node with
  | Leaf leaf -> leaf
  | Internal internal -> leaf_for internal.children.(child_for internal key) key

let fold_range t ~lo ~hi f init =
  let leaf = leaf_for t.root lo in
  let rec scan (leaf : 'a leaf) acc =
    let acc = ref acc in
    let stop = ref false in
    let n = Array.length leaf.keys in
    for i = 0 to n - 1 do
      let k = leaf.keys.(i) in
      if not !stop && String.compare k hi > 0 then stop := true;
      if (not !stop) && String.compare lo k <= 0 then acc := f k leaf.values.(i) !acc
    done;
    if !stop then !acc
    else begin
      match leaf.next with
      | None -> !acc
      | Some next -> scan next !acc
    end
  in
  scan leaf init

let range t ~lo ~hi =
  List.rev (fold_range t ~lo ~hi (fun k v acc -> (k, v) :: acc) [])

let iter t f =
  let rec leftmost = function
    | Leaf leaf -> leaf
    | Internal internal -> leftmost internal.children.(0)
  in
  let rec scan (leaf : 'a leaf) =
    Array.iteri (fun i k -> f k leaf.values.(i)) leaf.keys;
    match leaf.next with
    | None -> ()
    | Some next -> scan next
  in
  scan (leftmost t.root)
