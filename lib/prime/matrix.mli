(** Pre-order summary vectors and matrices — Prime's core data
    structures.

    Every replica [i] maintains a {e cumulative pre-order vector}
    [v] where [v.(j)] is the highest sequence number [t] such that [i]
    has received all pre-order requests [1..t] originated by replica
    [j]. Replicas continually exchange these vectors; the leader's
    {e pre-prepare} carries the full matrix (one row per reporting
    replica).

    An update [(j, t)] is {e eligible for execution} once at least
    [threshold = 2f + k + 1] rows report [row.(j) >= t]: a quorum then
    holds the update, so it can always be recovered, and the eligibility
    computation is a deterministic function of the ordered matrix — the
    heart of Prime's bounded-delay ordering. *)

type vector = int array
type t = vector array

(** [empty_vector ~n] is the all-zero vector of length [n]. *)
val empty_vector : n:int -> vector

(** [empty ~n] is the [n x n] all-zero matrix. *)
val empty : n:int -> t

(** [copy m] is a deep copy. *)
val copy : t -> t

(** [well_formed ~n m] is true when [m] has [n] rows of length [n]
    each. Every other matrix operation assumes its matrix arguments are
    square and of one size, so a replica checks this on every matrix a
    peer sends before using it. *)
val well_formed : n:int -> t -> bool

(** [merge_vector a b] is the element-wise maximum (cumulative vectors
    only ever grow). @raise Invalid_argument on length mismatch. *)
val merge_vector : vector -> vector -> vector

(** [merge a b] merges two matrices row-wise by element maximum. *)
val merge : t -> t -> t

(** [eligible m ~threshold] is the eligibility vector: entry [j] is the
    largest [t] such that at least [threshold] rows have [row.(j) >= t]
    (0 when fewer than [threshold] rows report anything for [j]).
    Computed as the [threshold]-th largest value of column [j]. *)
val eligible : t -> threshold:int -> vector

(** [digest m] hashes the matrix content (for prepare/commit votes). *)
val digest : t -> Cryptosim.Digest.t

(** [vector_dominates a b] is true when [a.(j) >= b.(j)] for all [j]. *)
val vector_dominates : vector -> vector -> bool

val equal : t -> t -> bool
val pp_vector : Format.formatter -> vector -> unit
val pp : Format.formatter -> t -> unit
