(** Quorum-availability watchdog.

    Liveness of the replicated master requires an ordering quorum of
    [2f + k + 1] replicas that are simultaneously correct, connected to
    the overlay and not down for recovery. A fault schedule that stays
    within the budget ([<= f] Byzantine, [<= k] down/recovering, no
    partition larger than one tolerated site) never drops availability
    below the quorum; a schedule that exceeds the budget does — which is
    exactly what this watchdog reports.

    The driving harness samples the system periodically and reports how
    many replicas are currently available (correct, connected, not
    recovering). Dropping below quorum size latches a failure. *)

type t

val create : quorum:Bft.Quorum.t -> t

(** [observe t ~time_us ~available] reports one availability sample. *)
val observe : t -> time_us:int -> available:int -> unit

val verdict : t -> Verdict.t

(** [min_available t] is the lowest availability ever observed (0 before
    any observation). *)
val min_available : t -> int
