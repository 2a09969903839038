(** Proactive recovery scheduler.

    Rejuvenates every replica once per rotation period, staggered so at
    most [max_concurrent] (the system's [k]) recover simultaneously.
    Each recovery takes [recovery_duration_us] of downtime (clean-image
    reboot, key refresh, state transfer), during which the replica
    counts against the [2k] term of [n = 3f + 2k + 1].

    The scheduler drives callbacks only; what "down" and "back up" mean
    (faults flags, snapshots, diversity redraws) is wired by the
    deployment layer. Reactive (on-demand) recoveries share the same
    concurrency budget. *)

type config = {
  rotation_period_us : int;
      (** every replica is recovered once per rotation *)
  recovery_duration_us : int;
  max_concurrent : int;
}

type t

(** [create ~engine ~config ~n ~on_begin ~on_complete]. *)
val create :
  engine:Sim.Engine.t ->
  config:config ->
  n:int ->
  on_begin:(Bft.Types.replica -> unit) ->
  on_complete:(Bft.Types.replica -> unit) ->
  t

(** [start t] schedules the staggered rotation: replica [i] first
    recovers at [(n - i) * (rotation_period / n)] (descending, so the
    rising view's leader is rarely the one rejuvenated), then once per
    rotation period for the rest of the run. A second [start] is a
    no-op. *)
val start : t -> unit

(** [trigger_now t replica] requests an immediate (reactive) recovery;
    returns [false] if the replica is already recovering or the
    concurrency budget is exhausted. *)
val trigger_now : t -> Bft.Types.replica -> bool

val in_progress : t -> Bft.Types.replica list
val recoveries_completed : t -> int

(** [is_recovering t replica]. *)
val is_recovering : t -> Bft.Types.replica -> bool
