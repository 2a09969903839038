(** Sets of replica indices as the bits of one native int.

    Replica [r] is bit [r], so a set is an immutable unboxed int: adding
    a vote allocates nothing, a set stored in a mutable record field is
    written without a write barrier, and two sets compare as ints.
    Indices run over [0 .. Quorum.max_n - 1] (0..61), the bound that
    {!Quorum.create} puts on every deployment. *)

type t = private int

val empty : t

(** [add s r] is [s] with replica [r].
    @raise Invalid_argument if [r] is outside [0 .. Quorum.max_n - 1]. *)
val add : t -> Types.replica -> t

(** [mem s r] is [false] for any [r] outside [0 .. Quorum.max_n - 1]. *)
val mem : t -> Types.replica -> bool

(** [cardinal s] counts the members (a popcount). *)
val cardinal : t -> int

(** [of_list rs] adds every [r] of [rs] to {!empty}. *)
val of_list : Types.replica list -> t
