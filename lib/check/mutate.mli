(** Structural mutation of encoded byte strings — the adversarial half of the
    harness. Mutations model what a compromised prover or a corrupted disk
    can present to a verifier: bit rot, truncation, spliced/duplicated/
    reordered spans, growth. *)

type kind =
  | Bit_flip       (** flip one bit *)
  | Byte_set       (** overwrite one byte with a random one *)
  | Truncate       (** cut the tail *)
  | Extend         (** append random bytes *)
  | Drop_span      (** remove an interior span *)
  | Dup_span       (** duplicate an interior span in place *)
  | Swap_spans     (** exchange two disjoint spans *)

val apply : Spitz_workload.Keygen.rng -> kind -> string -> string
(** One mutation of the given kind. May return the input unchanged when the
    kind cannot apply (e.g. [Drop_span] of a 0-byte string). *)

val random : Spitz_workload.Keygen.rng -> string -> string
(** A random mutation, {e guaranteed} different from the input: falls back
    to a bit flip (or an append, for the empty string) when the drawn kind
    degenerates to the identity. *)
