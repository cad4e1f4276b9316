open Spitz_index
module SM = Map.Make (String)

let key_of i = Printf.sprintf "k%05d" i

(* --- B+-tree --- *)

let test_bptree_basic () =
  let t = Bptree.create () in
  Alcotest.(check int) "empty" 0 (Bptree.cardinal t);
  Alcotest.(check (option int)) "missing" None (Bptree.get t "a");
  Bptree.insert t "a" 1;
  Bptree.insert t "b" 2;
  Bptree.insert t "a" 3;
  Alcotest.(check int) "cardinal after overwrite" 2 (Bptree.cardinal t);
  Alcotest.(check (option int)) "overwritten" (Some 3) (Bptree.get t "a");
  Bptree.remove t "a";
  Alcotest.(check (option int)) "removed" None (Bptree.get t "a");
  Alcotest.(check int) "cardinal after remove" 1 (Bptree.cardinal t)

let test_bptree_many () =
  let t = Bptree.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Bptree.insert t (key_of i) i
  done;
  Alcotest.(check int) "cardinal" n (Bptree.cardinal t);
  for i = 0 to n - 1 do
    if i mod 997 = 0 then Alcotest.(check (option int)) (key_of i) (Some i) (Bptree.get t (key_of i))
  done;
  let r = Bptree.range t ~lo:(key_of 5000) ~hi:(key_of 5099) in
  Alcotest.(check int) "range size" 100 (List.length r);
  Alcotest.(check (list string)) "range keys sorted"
    (List.init 100 (fun i -> key_of (5000 + i)))
    (List.map fst r)

let test_bptree_iter_order () =
  let t = Bptree.create () in
  List.iter (fun i -> Bptree.insert t (key_of i) i) [ 5; 3; 9; 1; 7 ];
  let keys = ref [] in
  Bptree.iter t (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list string)) "sorted order"
    (List.map key_of [ 1; 3; 5; 7; 9 ])
    (List.rev !keys)

let prop_bptree_model =
  QCheck.Test.make ~name:"bptree: model-based ops" ~count:50
    QCheck.(small_list (pair (int_bound 300) (option (int_bound 100))))
    (fun ops ->
       let t = Bptree.create () in
       let model =
         List.fold_left
           (fun m (ki, op) ->
              let k = key_of ki in
              match op with
              | Some v ->
                Bptree.insert t k v;
                SM.add k v m
              | None ->
                Bptree.remove t k;
                SM.remove k m)
           SM.empty ops
       in
       SM.for_all (fun k v -> Bptree.get t k = Some v) model
       && Bptree.cardinal t = SM.cardinal model
       && Bptree.range t ~lo:"" ~hi:"~" = SM.bindings model)

(* Large trees against [Map]: the insertion order decides the shape, and a
   key arriving below every separator of a node (descending order does it
   on every insert) must still leave the separators sorted, or lookups and
   scans route into the wrong child. *)
let prop_bptree_orders =
  QCheck.Test.make ~name:"bptree: random and descending orders match Map" ~count:40
    (* no shrinker: each step would rebuild a tree of thousands of keys *)
    (QCheck.make
       ~print:(fun (descending, ints, _) ->
           Printf.sprintf "%s order, %d keys" (if descending then "descending" else "random")
             (List.length ints))
       QCheck.Gen.(
         triple bool
           (list_size (int_range 0 3000) (int_bound 5000))
           (small_list (pair (int_bound 5100) (int_bound 5100)))))
    (fun (descending, ints, bounds) ->
       let ints = if descending then List.sort_uniq (fun a b -> compare b a) ints else ints in
       let t = Bptree.create () in
       let model =
         List.fold_left
           (fun m i ->
              Bptree.insert t (key_of i) i;
              SM.add (key_of i) i m)
           SM.empty ints
       in
       let in_range lo hi =
         SM.bindings (SM.filter (fun k _ -> String.compare lo k <= 0 && String.compare k hi <= 0) model)
       in
       SM.for_all (fun k v -> Bptree.get t k = Some v && Bptree.mem t k) model
       && List.for_all (fun i -> SM.mem (key_of i) model = Bptree.mem t (key_of i)) (List.init 5100 Fun.id)
       && Bptree.cardinal t = SM.cardinal model
       && Bptree.fold_range t ~lo:"" ~hi:"~" (fun k v acc -> (k, v) :: acc) [] = List.rev (SM.bindings model)
       && List.for_all
         (fun (a, b) ->
            let lo = key_of (min a b) and hi = key_of (max a b) in
            Bptree.range t ~lo ~hi = in_range lo hi)
         bounds)

let suite =
  [
    Alcotest.test_case "bptree basic" `Quick test_bptree_basic;
    Alcotest.test_case "bptree many" `Quick test_bptree_many;
    Alcotest.test_case "bptree iter order" `Quick test_bptree_iter_order;
    QCheck_alcotest.to_alcotest prop_bptree_model;
    QCheck_alcotest.to_alcotest prop_bptree_orders;
  ]
