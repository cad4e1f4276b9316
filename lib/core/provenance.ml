open Spitz_index

(* Fine-grained provenance in the LineageChain style (paper section 2.2):
   for every key, a skip-list index over its committed versions, so "value as
   of block h" and "evolution between two blocks" answer in logarithmic time
   instead of scanning the journal. Each version links to its predecessor,
   giving a walkable lineage chain; entries record the statement that wrote
   them, so an auditor sees not just what changed but why. *)

type entry = {
  height : int;              (* block that committed this version *)
  value : string option;     (* None = deletion *)
  statement : string;        (* the recorded query statement, "" if none *)
  previous : int option;     (* height of the predecessor version *)
}

type t = {
  tracks : (string, (int, entry) Skiplist.t) Hashtbl.t;
  mutable recorded : int;
}

let create () = { tracks = Hashtbl.create 256; recorded = 0 }

let track t key =
  match Hashtbl.find_opt t.tracks key with
  | Some s -> s
  | None ->
    let s = Skiplist.create Int.compare ~dummy_key:min_int ~dummy_value:{ height = 0; value = None; statement = ""; previous = None } in
    Hashtbl.replace t.tracks key s;
    s

(* Latest recorded version at or below [height]. *)
let version_at t key ~height =
  match Hashtbl.find_opt t.tracks key with
  | None -> None
  | Some s -> Skiplist.fold_range s ~lo:min_int ~hi:height (fun _ e _ -> Some e) None

let record t ~key ~height ?(statement = "") value =
  let s = track t key in
  let previous = Option.map (fun e -> e.height) (version_at t key ~height) in
  Skiplist.insert s height { height; value; statement; previous };
  t.recorded <- t.recorded + 1

let value_at t key ~height = Option.bind (version_at t key ~height) (fun e -> e.value)

(* Every version committed in the block interval [lo, hi], oldest first. *)
let between t key ~lo ~hi =
  match Hashtbl.find_opt t.tracks key with
  | None -> []
  | Some s -> Skiplist.range s ~lo ~hi |> List.map snd

let full_history t key =
  match Hashtbl.find_opt t.tracks key with
  | None -> []
  | Some s ->
    let acc = ref [] in
    Skiplist.iter s (fun _ e -> acc := e :: !acc);
    List.rev !acc

(* Walk the lineage chain backwards from the version live at [height]. *)
let lineage t key ~height =
  let rec go acc = function
    | None -> List.rev acc
    | Some h ->
      (match version_at t key ~height:h with
       | None -> List.rev acc
       | Some e -> go (e :: acc) e.previous)
  in
  go [] (Option.map (fun e -> e.height) (version_at t key ~height))

let recorded t = t.recorded

(* Rebuild the provenance index of a database by replaying its journal —
   what a new auditor node does when it joins. *)
let of_db db =
  let t = create () in
  let ledger = Db.ledger db in
  let journal = Db.L.journal ledger in
  for height = 0 to Spitz_ledger.Journal.length journal - 1 do
    let block = Spitz_ledger.Journal.block journal height in
    let statement = String.concat "; " block.Spitz_ledger.Block.statements in
    List.iter
      (fun (e : Spitz_ledger.Block.entry) ->
         let value =
           match e.Spitz_ledger.Block.op with
           | Spitz_ledger.Block.Delete -> None
           | _ -> Db.L.get_at ledger ~height e.Spitz_ledger.Block.key
         in
         record t ~key:e.Spitz_ledger.Block.key ~height ~statement value)
      block.Spitz_ledger.Block.entries
  done;
  t
