module K = Spitz_workload.Keygen

(* Seedable property-testing core; see the interface for the contract. The
   one design rule: the rng state is captured *before* a case is generated,
   so that state alone regenerates the case — failure reports stay valid
   even when the property itself draws no randomness. *)

type 'a arb = {
  gen : K.rng -> 'a;
  shrink : 'a -> 'a list;
  print : 'a -> string;
}

let make ?(shrink = fun _ -> []) ?(print = fun _ -> "<no printer>") gen =
  { gen; shrink; print }

let map f g arb =
  {
    gen = (fun rng -> f (arb.gen rng));
    shrink = (fun b -> List.map f (arb.shrink (g b)));
    print = (fun b -> arb.print (g b));
  }

type budget = Cases of int | Deadline of float

type failure = {
  seed : int;
  case : int;
  shrinks : int;
  counterexample : string;
  message : string;
}

exception Failed of failure

let pp_failure ~name f =
  Printf.sprintf
    "property %S failed (case %d, %d shrinks): %s\n\
    \  counterexample: %s\n\
    \  replay: Quick.replay <arb> ~seed:%d <prop>  (or re-run with seed %d)"
    name f.case f.shrinks f.message f.counterexample f.seed f.seed

(* A property fails by returning false or by raising. *)
let eval prop x =
  match prop x with
  | true -> None
  | false -> Some "returned false"
  | exception e -> Some ("raised " ^ Printexc.to_string e)

let shrink_loop arb prop ~max_shrinks x0 msg0 =
  let budget = ref max_shrinks in
  let rec go x msg steps =
    if !budget <= 0 then (x, msg, steps)
    else begin
      let rec first = function
        | [] -> None
        | cand :: rest ->
          if !budget <= 0 then None
          else begin
            decr budget;
            match eval prop cand with
            | Some m -> Some (cand, m)
            | None -> first rest
          end
      in
      match first (arb.shrink x) with
      | Some (smaller, m) -> go smaller m (steps + 1)
      | None -> (x, msg, steps)
    end
  in
  go x0 msg0 0

let check ?(seed = 0x5157) ?(max_shrinks = 1000) budget arb prop =
  let master = K.rng seed in
  let deadline =
    match budget with
    | Cases _ -> infinity
    | Deadline s -> Unix.gettimeofday () +. s
  in
  let continue case =
    match budget with
    | Cases n -> case < n
    | Deadline _ -> Unix.gettimeofday () < deadline
  in
  let rec loop case =
    if not (continue case) then Ok case
    else begin
      let case_rng = K.split master in
      let case_seed = K.state case_rng in
      let x = arb.gen case_rng in
      match eval prop x with
      | None -> loop (case + 1)
      | Some msg ->
        let x, msg, shrinks = shrink_loop arb prop ~max_shrinks x msg in
        Error { seed = case_seed; case; shrinks; counterexample = arb.print x; message = msg }
    end
  in
  loop 0

let run ~name ?seed ?max_shrinks budget arb prop =
  match check ?seed ?max_shrinks budget arb prop with
  | Ok _ -> ()
  | Error f ->
    prerr_endline (pp_failure ~name f);
    raise (Failed f)

let replay arb ~seed prop =
  let x = arb.gen (K.of_state seed) in
  eval prop x = None

(* --- combinators --- *)

let int_range lo hi rng =
  if hi < lo then invalid_arg "Quick.int_range";
  lo + K.int rng (hi - lo + 1)

let shrink_int n =
  if n = 0 then [] else [ 0; n / 2 ] |> List.filter (fun m -> m <> n) |> List.sort_uniq compare

let shrink_list shrink_elt l =
  let n = List.length l in
  if n = 0 then []
  else begin
    let half = List.filteri (fun i _ -> i < n / 2) l in
    let drop_one = List.init n (fun i -> List.filteri (fun j _ -> j <> i) l) in
    let shrink_one =
      List.concat
        (List.mapi
           (fun i x ->
              List.map (fun x' -> List.mapi (fun j y -> if j = i then x' else y) l) (shrink_elt x))
           l)
    in
    (if n > 1 then [ half ] else []) @ drop_one @ shrink_one
  end
