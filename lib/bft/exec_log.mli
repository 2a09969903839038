(** Execution log: the length and running digest chain of the
    totally-ordered sequence of updates a replica has applied (the
    updates themselves are not kept).

    The digest chain makes safety violations detectable in O(1): two
    replicas executed the same sequence iff their chained digests at the
    same length are equal. Every integration test and benchmark asserts
    this across all correct replicas.

    Storage: the chain digest of every remembered position sits in one
    dense byte buffer, 8 bytes per position, from a base position to the
    current length. The base is 0 for a fresh log and the snapshot's
    length after {!install_snapshot}, which forgets everything below it;
    the buffer doubles when full and is never shrunk. *)

type t

val create : unit -> t

(** [append t update] records the next executed update and returns its
    1-based sequence position. Duplicate keys are the caller's problem —
    the log records exactly what was executed. *)
val append : t -> Update.t -> int

(** [length t] is the number of executed updates. *)
val length : t -> int

(** [chain_digest t] is the running digest after the last executed
    update (a fixed constant for the empty log). *)
val chain_digest : t -> Cryptosim.Digest.t

(** [digest_at t pos] is the chain digest after the [pos]-th update
    (0 = empty prefix).
    @raise Invalid_argument unless [pos] lies between the base position
    and [length t], both included. *)
val digest_at : t -> int -> Cryptosim.Digest.t

(** [prefix_equal a b] checks that the shorter log is a prefix of the
    longer (the safety invariant between two correct replicas) by
    comparing chain digests at the shorter length; it is [true] when
    either log no longer remembers that position. *)
val prefix_equal : t -> t -> bool

(** [install_snapshot t ~updates ~chain] installs a checkpointed state:
    the log forgets the earlier chain digests and is seeded with the
    snapshot's length and chain digest (used by state transfer when a
    recovering replica adopts a snapshot). [updates] is the number of
    updates covered by the snapshot. *)
val install_snapshot : t -> updates:int -> chain:Cryptosim.Digest.t -> unit
