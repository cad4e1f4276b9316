(* The paper's e-commerce scenario (section 3.3): purchases must be
   serializable — no double-spent credits, no oversold stock — while
   analytics ("items with stock below 50") reads without aborting on
   conflicts. Purchases run on four domains against one Spitz database.
   Each reads its customer's credits and its item's stock at a pinned
   snapshot, then commits both decrements on the condition that no block
   since wrote either key — section 5.2's optimistic validation over the
   ledger's versions — and starts over at a fresh snapshot on a conflict.

     dune exec examples/ecommerce.exe *)

module Db = Spitz.Db

let customers = 8
let items = 4
let purchases = 60
let domains = 4

let initial_credits = 50
let initial_stock = 40

let credits c = Printf.sprintf "credits:%d" c
let stock i = Printf.sprintf "stock:%d" i

(* One purchase: spend a credit, take one unit of stock. Returns how many
   times a conflict sent it back to a fresh snapshot. *)
let rec purchase db c i =
  let s = Option.get (Db.snapshot db) in
  let at = Db.Snapshot.height s in
  let dec key = string_of_int (int_of_string (Option.get (Db.Snapshot.get s key)) - 1) in
  match
    Db.commit db
      ~statements:[ Printf.sprintf "purchase customer %d item %d" c i ]
      ~reads:[ (credits c, at); (stock i, at) ]
      [ Spitz_ledger.Ledger.Put (credits c, dec (credits c));
        Spitz_ledger.Ledger.Put (stock i, dec (stock i)) ]
  with
  | _ -> 0
  | exception Db.Conflict _ -> 1 + purchase db c i

let total db key count =
  List.fold_left ( + ) 0
    (List.init count (fun n -> int_of_string (Option.get (Db.get db (key n)))))

let () =
  let db = Db.open_db () in
  ignore
    (Db.put_batch db ~statements:[ "opening balances" ]
       (List.init customers (fun c -> (credits c, string_of_int initial_credits))
        @ List.init items (fun i -> (stock i, string_of_int initial_stock))));

  print_endline "== e-commerce purchases: conditional commits from 4 domains ==";
  (* each domain takes a run of purchases, every customer and item among
     them, and the domains start together, so their purchases contend *)
  let ready = Atomic.make 0 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < domains do Domain.cpu_relax () done;
            List.fold_left ( + ) 0
              (List.filter_map
                 (fun n ->
                    if n * domains / purchases = d then
                      Some (purchase db (n mod customers) (n mod items))
                    else None)
                 (List.init purchases Fun.id))))
  in
  let retried = List.fold_left ( + ) 0 (List.map Domain.join workers) in
  (* invariant: total credits spent = total stock sold = purchases *)
  let credits_left = total db credits customers in
  let stock_left = total db stock items in
  Printf.printf "  %d purchases committed, %d conflicts retried | credits %d->%d stock %d->%d %s\n"
    purchases retried (customers * initial_credits) credits_left (items * initial_stock)
    stock_left
    (if credits_left = (customers * initial_credits) - purchases
        && stock_left = (items * initial_stock) - purchases
     then "(conserved)"
     else "(VIOLATION!)");

  (* Analytics reads the head snapshot and validates nothing, so it never
     aborts and never holds up a purchase (section 3.3's "stock below 50"
     query under read committed). *)
  print_endline "== read-committed analytics ==";
  let low_stock =
    List.filter (fun (_, v) -> int_of_string v < 50) (Db.range db ~lo:"stock:" ~hi:"stock:\xff")
  in
  Printf.printf "  items with stock below 50: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) low_stock));

  (* Every purchase is a block: an auditor verifies the books against the
     digest. *)
  print_endline "== verifying the books ==";
  let digest = Db.digest db in
  let key = credits 0 in
  let value, proof = Db.get_verified db key in
  Printf.printf "  %d blocks; verified %s=%s: %b; journal audit: %b\n" digest.size key
    (Option.value ~default:"?" value)
    (Db.verify_read ~digest ~key ~value (Option.get proof))
    (Db.audit db);

  print_endline "done."
