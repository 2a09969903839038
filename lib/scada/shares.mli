(** Threshold-share collection for one update.

    Each reply's share is verified once, on arrival, against every group
    the caller accepts, and counted per (claimed digest, group) in a
    {!Bft.Replica_set.t} of members: a duplicate counts once, an invalid
    share not at all. Once a group's distinct valid members reach its
    threshold, the held shares are combined and the combined signature
    verified, once. *)

type t

val create : unit -> t

(** [add t ~groups reply] files [reply]'s share. It is [Some body], the
    body of the first valid reply for that digest and group, when the
    share brings a group of [groups] to its threshold and the combined
    signature verifies. A share is never re-checked against a group
    passed later. *)
val add :
  t -> groups:Cryptosim.Threshold.group list -> Reply.t -> Reply.body option
