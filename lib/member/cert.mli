(** Epoch-ed membership certificates.

    One certificate per epoch: site list with active/backup control
    center roles, global replica ids per site, resilience parameters
    (f, k), and the hash-chain link to the previous epoch.  A
    transition is valid only when vouched by a quorum of the previous
    epoch's members and taking effect at a boundary execution index
    that never moves backwards. *)

type role = Active_cc | Backup_cc | Data_center

val role_name : role -> string

type site = { site_id : int; role : role; members : int list }

type t = {
  epoch : int;
  f : int;
  k : int;
  boundary_exec : int;
  sites : site list;
  signers : int list;
  prev_digest : Cryptosim.Digest.t;
}

val epoch : t -> int
val f : t -> int
val k : t -> int
val boundary_exec : t -> int

(** All global member ids in site order (defines protocol rank). *)
val members : t -> int list

val n : t -> int

(** Ordering quorum of this epoch's [f] and [k]
    ({!Bft.Quorum.quorum_size}). *)
val quorum_size : t -> int

(** Client confirmation threshold of this epoch's [f]
    ({!Bft.Quorum.reply_threshold}). *)
val reply_threshold : t -> int

(** Structural well-formedness: sizes, disjointness, exactly one
    active control center, [n] at least the {!Bft.Quorum.minimal}
    floor. *)
val validate : t -> (unit, string) result

(** Chain digest over the canonical serialization (includes signers
    and the previous digest). *)
val digest : t -> Cryptosim.Digest.t

(** [verify_succession ~prev ~next] checks the chain link, boundary
    monotonicity, signer membership in [prev], a previous-epoch quorum
    of signers, [validate next], and transition safety: [next]'s
    quorum is at least [prev]'s reply threshold, the overlap of two
    [prev] quorums that pins the agreed prefix. Growing [f] or [k] is
    always safe; shrinking may not be. *)
val verify_succession : prev:t -> next:t -> (unit, string) result

(** Genesis (epoch 0, boundary 0, no signers). Raises [Invalid_argument]
    if structurally invalid. *)
val genesis : f:int -> k:int -> sites:site list -> t

val pp : Format.formatter -> t -> unit
