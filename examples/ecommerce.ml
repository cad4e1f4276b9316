(* The paper's e-commerce scenario (section 3.3): purchases must be
   serializable — no double-spent credits, no oversold stock — while
   analytics ("items with stock below 50") runs read-committed without
   aborting on conflicts. Purchases here run under each of the three MVCC
   concurrency-control engines of section 5.2, then the committed state is
   anchored in a Spitz ledger.

     dune exec examples/ecommerce.exe *)

open Spitz_txn

let customers = 8
let items = 4
let purchases = 60

let initial_credits = 50
let initial_stock = 40

let seed_store () =
  let store = Mvcc.create () in
  for c = 0 to customers - 1 do
    Mvcc.write store (Printf.sprintf "credits:%d" c) ~ts:0 (Some (string_of_int initial_credits))
  done;
  for i = 0 to items - 1 do
    Mvcc.write store (Printf.sprintf "stock:%d" i) ~ts:0 (Some (string_of_int initial_stock))
  done;
  store

(* One purchase: spend a credit, take one unit of stock. Negative balances
   must be impossible under a serializable engine. *)
let purchase_spec c i =
  let dec v = string_of_int (int_of_string (Option.get v) - 1) in
  [
    Scheduler.Rmw (Printf.sprintf "credits:%d" c, dec);
    Scheduler.Rmw (Printf.sprintf "stock:%d" i, dec);
  ]

let run_engine engine =
  let store = seed_store () in
  let oracle = Timestamp.create () in
  let specs =
    List.init purchases (fun n -> purchase_spec (n mod customers) (n mod items))
  in
  let stats = Scheduler.run ~engine ~store ~oracle specs in
  (* invariant: total credits spent = total stock sold = purchases *)
  let total prefix count =
    let sum = ref 0 in
    for i = 0 to count - 1 do
      sum := !sum + int_of_string (Option.get (Mvcc.read_latest store (Printf.sprintf "%s:%d" prefix i)))
    done;
    !sum
  in
  let credits_left = total "credits" customers in
  let stock_left = total "stock" items in
  Printf.printf "  %-9s committed=%d aborted=%d waits=%d | credits %d->%d stock %d->%d %s\n"
    (Scheduler.engine_name engine)
    stats.Scheduler.committed stats.Scheduler.aborted stats.Scheduler.waits
    (customers * initial_credits) credits_left
    (items * initial_stock) stock_left
    (if credits_left = (customers * initial_credits) - purchases
        && stock_left = (items * initial_stock) - purchases
     then "(conserved)" else "(VIOLATION!)");
  store

let () =
  print_endline "== e-commerce purchases: serializable engines ==";
  let final_store =
    List.fold_left
      (fun _ engine -> run_engine engine)
      (seed_store ())
      [ Scheduler.Mvcc_to; Scheduler.Mvcc_occ; Scheduler.Two_pl ]
  in

  (* Read-committed analytics on the same data: a long read-only report runs
     without taking locks or aborting writers (section 3.3's "stock below
     50" query). *)
  print_endline "== read-committed analytics ==";
  let low_stock = ref [] in
  Mvcc.iter_latest final_store (fun key v ->
      if String.length key > 6 && String.sub key 0 6 = "stock:" && int_of_string v < 50 then
        low_stock := (key, v) :: !low_stock);
  Printf.printf "  items with stock below 50: %s\n"
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) (List.sort compare !low_stock)));

  (* Anchor the committed state in a Spitz ledger so auditors can verify the
     books: every balance becomes a verifiable cell. *)
  print_endline "== anchoring the books in the ledger ==";
  let db = Spitz.Db.open_db () in
  let entries = ref [] in
  Mvcc.iter_latest final_store (fun k v -> entries := (k, v) :: !entries);
  let height = Spitz.Db.put_batch db ~statements:[ "daily book-close" ] !entries in
  let digest = Spitz.Db.digest db in
  let key = "credits:0" in
  let value, proof = Spitz.Db.get_verified db key in
  Printf.printf "  book-close block %d; verified %s=%s: %b\n" height key
    (Option.value ~default:"?" value)
    (Spitz.Db.verify_read ~digest ~key ~value (Option.get proof));

  print_endline "done."
