(** Seedable property-testing core.

    A deliberately small QuickCheck: generators are functions of a
    {!Spitz_workload.Keygen.rng}, every case runs under a fresh stream whose
    state is recorded {e before} generation, and a failure report prints that
    state — so any failure replays exactly with {!replay}, in any process, on
    any machine. Shrinking is greedy: each candidate the shrinker proposes is
    re-run, the first still-failing candidate is adopted, and the loop repeats
    until no candidate fails (or the shrink budget runs out).

    The differential test suite runs fixed-seed {!Cases} budgets (tier 1,
    deterministic); the nightly fuzz entry point runs {!Deadline} budgets
    (open-ended, wall-clock bounded). Same properties, same code path. *)

type 'a arb = {
  gen : Spitz_workload.Keygen.rng -> 'a;
  shrink : 'a -> 'a list;  (** candidate smaller values, most aggressive first *)
  print : 'a -> string;
}

val make :
  ?shrink:('a -> 'a list) -> ?print:('a -> string) ->
  (Spitz_workload.Keygen.rng -> 'a) -> 'a arb
(** [shrink] defaults to no candidates; [print] to a placeholder. *)

val map : ('a -> 'b) -> ('b -> 'a) -> 'a arb -> 'b arb
(** [map f g arb] generates [f (gen rng)] and shrinks through [g]. *)

type budget =
  | Cases of int       (** run exactly this many generated cases *)
  | Deadline of float  (** run until this many wall-clock seconds elapse *)

type failure = {
  seed : int;            (** rng state that regenerates the original case *)
  case : int;            (** 0-based index of the failing case in the run *)
  shrinks : int;         (** successful shrink steps applied *)
  counterexample : string;  (** printed minimal failing value *)
  message : string;      (** "returned false" or the escaping exception *)
}

exception Failed of failure

val pp_failure : name:string -> failure -> string
(** Human-readable report: property name, seed, replay instructions. *)

val check :
  ?seed:int -> ?max_shrinks:int -> budget -> 'a arb -> ('a -> bool) ->
  (int, failure) result
(** Run the property under the budget. [Ok n] = all [n] cases passed.
    The default [seed] is fixed (deterministic CI); pass wall-clock derived
    seeds for exploratory runs. [max_shrinks] caps total candidate
    evaluations during shrinking (default 1000). A property failure is a
    [false] return {e or} an escaping exception. *)

val run : name:string -> ?seed:int -> ?max_shrinks:int -> budget -> 'a arb ->
  ('a -> bool) -> unit
(** {!check}, raising {!Failed} with a printed report on failure — the form
    test runners call. *)

val replay : 'a arb -> seed:int -> ('a -> bool) -> bool
(** Re-run the single case a failure report names. [true] = passes now. *)

(** {1 Generator combinators} *)

val int_range : int -> int -> Spitz_workload.Keygen.rng -> int
(** Uniform in [lo, hi] inclusive. *)

val shrink_int : int -> int list
(** Toward zero, halving. *)

val shrink_list : ('a -> 'a list) -> 'a list -> 'a list list
(** Drop half, drop one element, shrink one element — in that order. *)
