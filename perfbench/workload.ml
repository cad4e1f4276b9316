(* Seeded inputs of the benchmark and the client-side model of what the
   store must answer. Every stream is derived from the run's seed, so the
   same seed gives the same keys, values, tokens and sample choices; the
   server only ever sees the generated requests. *)

module Keygen = Spitz_workload.Keygen

(* 16,384 keys: three set-ups of 32,768 took about 20 s of every run, too
   much for the run budget when the host slows down. The working set still
   exceeds the proof cache (8,192 get entries) on uniform reads, and the
   Zipfian head still fits it. *)
let n_keys = 16_384
let load_batch = 512
let commit_batch = 16
let range_len = 16
let zipf_theta = 0.99

let key i = Keygen.key_of i

(* Keys are 5-12 bytes and values 20 bytes, the paper's shapes. The version
   is the run's write counter, so every write stores a value of its own. *)
let value ~version i = Keygen.value_of ~version (key i)

let range_bounds start = Keygen.range_bounds ~lo:start ~hi:(start + range_len - 1)

(* Independent streams per phase: a phase that runs for a fixed time cannot
   shift the inputs of the phases after it. *)
let stream ~seed phase = Keygen.rng ((seed * 1_000_003) + phase)

(* --- Zipfian(theta) over [0, n), Gray et al.'s generator as in YCSB ---
   Keygen.pick's Zipfian is a power approximation: at theta 0.99 it sends
   about 90% of draws to index 0, which no proof cache size would notice. *)

type zipf = { n : int; theta : float; zetan : float; alpha : float; eta : float }

let zipf n theta =
  let zeta m =
    let acc = ref 0.0 in
    for i = 1 to m do acc := !acc +. (1.0 /. (float_of_int i ** theta)) done;
    !acc
  in
  let zetan = zeta n in
  {
    n; theta; zetan;
    alpha = 1.0 /. (1.0 -. theta);
    eta = (1.0 -. ((2.0 /. float_of_int n) ** (1.0 -. theta))) /. (1.0 -. (zeta 2 /. zetan));
  }

let zipf_rank z rng =
  let u = Keygen.float rng in
  let uz = u *. z.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. (0.5 ** z.theta) then 1
  else
    min (z.n - 1)
      (int_of_float (float_of_int z.n *. (((z.eta *. u) -. z.eta +. 1.0) ** z.alpha)))

(* Popularity rank -> key index: an odd multiplier plus a seeded offset is a
   bijection modulo the power-of-two keyspace, so hot keys are spread over
   the whole index instead of sharing the leftmost leaves. *)
let scatter ~seed rank = ((rank * 0x9E3779B1) + (seed * 7919)) land (n_keys - 1)

type dist = Uniform | Hot of zipf

let pick ~seed dist rng =
  match dist with
  | Uniform -> Keygen.int rng n_keys
  | Hot z -> scatter ~seed (zipf_rank z rng)

(* [k] distinct key indices for one commit batch. *)
let distinct_keys rng k =
  let rec go acc m =
    if m = 0 then acc
    else
      let i = Keygen.int rng n_keys in
      if List.mem i acc then go acc m else go (i :: acc) (m - 1)
  in
  go [] k

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Keygen.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let shuffled_keys rng = shuffle rng (Array.init n_keys Fun.id)

(* --- the model: every value written, per key and block height --- *)

type model = {
  versions : (int * string) list array;  (* newest first *)
  mu : Mutex.t;
  mutable writes : int;                   (* version counter *)
  mutable user_bytes : int;               (* key + value bytes written *)
}

let model () =
  { versions = Array.make n_keys []; mu = Mutex.create (); writes = 0; user_bytes = 0 }

(* The next commit's writes, recorded under the height the commit will get.
   A writer records before it sends, so a concurrent reader whose pin has
   passed that height always finds the write in the model. *)
let record m ~height keys =
  Mutex.protect m.mu (fun () ->
      List.map
        (fun i ->
          let v = value ~version:m.writes i in
          m.writes <- m.writes + 1;
          m.user_bytes <- m.user_bytes + String.length (key i) + String.length v;
          m.versions.(i) <- (height, v) :: m.versions.(i);
          (key i, v))
        keys)

let value_at m ~height i =
  Mutex.protect m.mu (fun () ->
      List.find_opt (fun (h, _) -> h <= height) m.versions.(i) |> Option.map snd)

let range_at m ~height start =
  List.init range_len (fun d ->
      let i = start + d in
      Option.map (fun v -> (key i, v)) (value_at m ~height i))
  |> List.filter_map Fun.id

(* Idempotency tokens of fixed width: block bytes, and so the store size,
   repeat exactly for a given seed. *)
let token n = Printf.sprintf "pb%08d" n
