(** Quorum arithmetic for intrusion-tolerant replication with proactive
    recovery.

    Following the paper, a system that must tolerate [f] simultaneous
    intrusions {e and} [k] replicas being unavailable because they are
    undergoing proactive recovery needs

    {v n >= 3f + 2k + 1 v}

    replicas, with quorums of size [2f + k + 1]: any two such quorums
    intersect in at least [f + 1] replicas, of which at least one is
    correct, and a full quorum of correct, non-recovering replicas
    remains available even with [f] compromised and [k] recovering. *)

type t = private { n : int; f : int; k : int }

(** [max_n] is 62: replica sets ({!Replica_set.t} in Prime, PBFT and
    the client share collector, and the telemetry milestone masks) are
    the bits of one native int, so no deployment, standby replicas
    included, may hold more replicas. *)
val max_n : int

(** [create ~n ~f ~k] validates [n >= 3f + 2k + 1] (and [f >= 0],
    [k >= 0], [1 <= n <= max_n]).
    @raise Invalid_argument when the resilience bound is violated. *)
val create : n:int -> f:int -> k:int -> t

(** [minimal ~f ~k] is the smallest legal system: [n = 3f + 2k + 1].
    This is the one place the sizing rule is written: configuration
    planning ({!Spire.Config_calc}) and membership certificates
    ({!Member.Cert}) read [n] and the thresholds below off it.
    @raise Invalid_argument if [f < 0], [k < 0] or [n > max_n]. *)
val minimal : f:int -> k:int -> t

(** [quorum_size t] is [2f + k + 1]. *)
val quorum_size : t -> int

(** [suspect_threshold t] is [f + k + 1]: a set of suspicions that
    cannot be produced by faulty + recovering replicas alone. *)
val suspect_threshold : t -> int

(** [reply_threshold t] is [f + 1]: matching replies that guarantee at
    least one comes from a correct replica. It is also the overlap of
    any two quorums at minimal [n] ([2(2f+k+1) - (3f+2k+1)]), the floor
    a successor epoch's quorum must meet ({!Member.Cert.verify_succession}). *)
val reply_threshold : t -> int
