(* Inverted index: cell value -> posting list of universal keys (paper
   section 5). Every indexed value is a string (the database indexes each
   stored value as is, the SQL layer its printed JSON), kept in a radix tree
   for prefix compression. Postings are kept sorted and deduplicated. *)

type posting = string list (* sorted universal keys *)

type t = { mutable strings : posting Radix_tree.t }

let create () = { strings = Radix_tree.empty }

let rec add_sorted key = function
  | [] -> [ key ]
  | k :: rest as all ->
    let c = String.compare key k in
    if c < 0 then key :: all
    else if c = 0 then all
    else k :: add_sorted key rest

let add t s ukey =
  let current = Option.value ~default:[] (Radix_tree.get t.strings s) in
  t.strings <- Radix_tree.insert t.strings s (add_sorted ukey current)

let remove t s ukey =
  match Radix_tree.get t.strings s with
  | None -> ()
  | Some postings ->
    (match List.filter (fun k -> not (String.equal k ukey)) postings with
     | [] -> t.strings <- Radix_tree.remove t.strings s
     | rest -> t.strings <- Radix_tree.insert t.strings s rest)

let lookup t s = Option.value ~default:[] (Radix_tree.get t.strings s)

let lookup_prefix t ~prefix =
  Radix_tree.fold_prefix t.strings ~prefix (fun _ postings acc -> acc @ postings) []
