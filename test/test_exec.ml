open Spitz_exec

(* The pool's contract: identical results at every pool size, exceptions
   propagated, pool usable afterwards. Run each structural check across pool
   sizes 1 (inline fast path), 2, and 4 (more domains than this machine may
   have cores — correctness must not depend on the core count). *)

let with_pool n f =
  let pool = Pool.create n in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let pool_sizes = [ 1; 2; 4 ]
let input_sizes = [ 0; 1; 2; 7; 100; 1000 ]

let test_map_matches_sequential () =
  let f x = (x * 31) lxor (x lsr 2) in
  List.iter
    (fun np ->
       with_pool np (fun pool ->
           List.iter
             (fun n ->
                let input = Array.init n (fun i -> i) in
                let expected = Array.map f input in
                Alcotest.(check (array int))
                  (Printf.sprintf "pool %d, %d elements" np n)
                  expected
                  (Pool.parallel_map pool f input))
             input_sizes))
    pool_sizes

let test_map_list_order () =
  List.iter
    (fun np ->
       with_pool np (fun pool ->
           List.iter
             (fun n ->
                let input = List.init n string_of_int in
                Alcotest.(check (list string))
                  (Printf.sprintf "pool %d, %d elements" np n)
                  (List.map (fun s -> s ^ "!") input)
                  (Pool.map_list pool (fun s -> s ^ "!") input))
             input_sizes))
    pool_sizes

let test_parallel_for_covers_all () =
  List.iter
    (fun np ->
       with_pool np (fun pool ->
           List.iter
             (fun n ->
                (* each worker writes disjoint slots: no synchronization needed *)
                let hit = Array.make (max 1 n) 0 in
                Pool.parallel_for pool ~chunk:3 n (fun i -> hit.(i) <- hit.(i) + 1);
                Alcotest.(check bool)
                  (Printf.sprintf "pool %d, n=%d: each index exactly once" np n)
                  true
                  (Array.for_all (fun c -> c = 1) (Array.sub hit 0 n)))
             input_sizes))
    pool_sizes

let test_reduce_deterministic () =
  (* string concat is associative but not commutative: any reordering of the
     fold shows up immediately *)
  let expected n = String.concat "" (List.init n string_of_int) in
  List.iter
    (fun np ->
       with_pool np (fun pool ->
           List.iter
             (fun n ->
                Alcotest.(check string)
                  (Printf.sprintf "pool %d, n=%d" np n)
                  (expected n)
                  (Pool.parallel_reduce pool ~chunk:4 ~map:string_of_int
                     ~combine:( ^ ) ~init:"" n))
             input_sizes))
    pool_sizes

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun np ->
       with_pool np (fun pool ->
           (match
              Pool.parallel_map pool
                (fun i -> if i = 37 then raise (Boom i) else i)
                (Array.init 100 (fun i -> i))
            with
            | _ -> Alcotest.failf "pool %d: expected Boom" np
            | exception Boom 37 -> ());
           (* the failed operation must leave the pool fully usable *)
           Alcotest.(check (array int))
             (Printf.sprintf "pool %d reusable after exception" np)
             (Array.init 50 (fun i -> i + 1))
             (Pool.parallel_map pool (fun i -> i + 1) (Array.init 50 (fun i -> i)))))
    pool_sizes

let test_shutdown_runs_inline () =
  let pool = Pool.create 4 in
  Pool.shutdown pool;
  Pool.shutdown pool; (* idempotent *)
  Alcotest.(check (list int)) "post-shutdown ops run inline" [ 2; 4; 6 ]
    (Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ])

let test_default_size_positive () =
  Alcotest.(check bool) "default size >= 1" true (Pool.default_size () >= 1)

(* --- the acceptance criterion: pool size must never change any committed
   hash. Drive the full pipeline (value hashing, entry leaf hashing, SIRI
   update, shadow rebuild) at pool sizes 1 and 4 and require bit-identical
   digests, roots, and verifiable proofs. *)

let batch b =
  (* >= 16 writes per batch so the parallel stages actually engage *)
  List.init 48 (fun i ->
      let k = Printf.sprintf "key-%03d-%02d" b i in
      if i mod 11 = 10 then Spitz_ledger.Ledger.Delete k
      else Spitz_ledger.Ledger.Put (k, String.concat "-" (List.init 20 (fun v -> k ^ string_of_int v))))

let build_ledger pool =
  let module L = Spitz_ledger.Ledger.Default in
  let l = L.create ?pool (Spitz_storage.Object_store.create ()) in
  for b = 0 to 5 do
    ignore (L.commit l (batch b))
  done;
  l

let test_ledger_digest_pool_invariant () =
  let module L = Spitz_ledger.Ledger.Default in
  with_pool 4 (fun pool ->
      let serial = build_ledger None in
      let parallel = build_ledger (Some pool) in
      Alcotest.(check bool) "journal digests identical" true
        (L.digest serial = L.digest parallel);
      (* proofs produced by the parallel-committed ledger verify against the
         serial ledger's digest (same digest, but check end-to-end anyway) *)
      let digest = L.digest serial in
      let key = "key-003-07" in
      let value, proof = L.snap_get_with_proof (Option.get (L.snapshot parallel)) key in
      Alcotest.(check bool) "value present" true (value <> None);
      Alcotest.(check bool) "proof verifies" true (L.verify_read ~digest ~key ~value proof);
      List.iter
        (fun receipt ->
           Alcotest.(check bool) "write receipt verifies" true
             (L.verify_write ~digest receipt))
        (L.write_receipts parallel ~height:2))

let test_rebuild_shadow_pool_invariant () =
  let module B = Spitz_baseline.Baseline_db in
  with_pool 4 (fun pool ->
      let b = B.create () in
      for i = 0 to 200 do
        ignore (B.put b (Printf.sprintf "k%04d" i) (Printf.sprintf "v%04d" (i * 3)))
      done;
      let serial = B.rebuild_shadow b in
      let parallel = B.rebuild_shadow ~pool b in
      Alcotest.(check bool) "rebuild root identical" true
        (Spitz_crypto.Hash.equal serial parallel))

let suite =
  [
    Alcotest.test_case "map matches sequential" `Quick test_map_matches_sequential;
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
    Alcotest.test_case "for covers each index once" `Quick test_parallel_for_covers_all;
    Alcotest.test_case "reduce is deterministic" `Quick test_reduce_deterministic;
    Alcotest.test_case "exception propagates, pool reusable" `Quick test_exception_propagates;
    Alcotest.test_case "shutdown idempotent, inline after" `Quick test_shutdown_runs_inline;
    Alcotest.test_case "default size" `Quick test_default_size_positive;
    Alcotest.test_case "ledger digest pool-invariant" `Quick test_ledger_digest_pool_invariant;
    Alcotest.test_case "shadow rebuild pool-invariant" `Quick test_rebuild_shadow_pool_invariant;
  ]
