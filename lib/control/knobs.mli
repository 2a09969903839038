(** Runtime tuning plane: the validated actuation path.

    Every live parameter change in a running deployment — whether issued
    by the adaptive controller ({!Local}/{!Global}), a test, or an
    operator probe — flows through one [Knobs.t]: the request is
    validated against static bounds, handed to the deployment-installed
    actuator, and recorded in an append-only change journal together
    with per-knob applied/rejected counters. The journal and the
    counters reconcile by construction ({!reconcile}), which is what
    lets the E13 oracle assert that {e no} knob changed outside the
    plane.

    This module is deliberately dependency-free (it names routing modes
    and batch bounds abstractly): the deployment layer ([Spire.System])
    owns the translation onto [Overlay.Net], [Bft.Batch],
    [Recovery.Scheduler] and [Prime.Replica]. *)

(** Dissemination mode, mirrored from [Overlay.Net.mode] without the
    dependency. *)
type routing = Shortest | Kdisjoint of int | Flooding

type request =
  | Set_max_batch of int  (** ordering/reply/client aggregation bound *)
  | Set_batch_delay_us of int  (** aggregation deadline *)
  | Set_routing of routing
  | Set_recovery_period_us of int  (** proactive-recovery rotation *)
  | Set_tat_threshold_us of int  (** Prime turnaround suspicion bound *)
  | Set_tat_violations of int  (** consecutive violations to suspect *)
  | Demote_leader
      (** suspect the current leader on every correct replica now *)

(** The knob a request targets (the counter key). *)
type kind =
  | Max_batch
  | Batch_delay
  | Routing
  | Recovery_period
  | Tat_threshold
  | Tat_violations
  | Demotion

(** The smallest TAT threshold a request may set: 1 ms. *)
val min_tat_threshold_us : int

(** {1 The plane} *)

type t

(** One journal line: every decision, applied or rejected, with its
    provenance. *)
type entry = {
  at_us : int;  (** virtual time of the decision *)
  source : string;  (** e.g. ["global"], ["local:3"], ["probe"] *)
  request : request;
  applied : bool;
  note : string;  (** rejection reason; [""] when applied *)
}

val create : unit -> t

(** [set_actuator t f] installs the deployment hook that performs a
    validated request. [f] returns [Error reason] when the deployment
    cannot honour it (e.g. recovery not enabled); the rejection is
    journalled like a validation failure. Until an actuator is
    installed every request is rejected. *)
val set_actuator : t -> (request -> (unit, string) result) -> unit

(** [request t ~now_us ~source r] is the only way to change a knob:
    validate, actuate, journal, count. Returns the actuation outcome.
    Validation rejects nonsense before the actuator is consulted:
    [max_batch] outside [1 .. 1024], a batch delay outside
    [0 .. 1 s], [Kdisjoint] outside [2 .. 8], a recovery period under
    100 ms, a TAT threshold outside [1 ms .. 60 s] and TAT violations
    outside [1 .. 100]. *)
val request : t -> now_us:int -> source:string -> request -> (unit, string) result

(** [journal t] — every entry, oldest first. *)
val journal : t -> entry list

val applied_count : t -> kind -> int
val total_applied : t -> int
val total_rejected : t -> int

(** [reconcile t] checks the journal against the counters: per-kind
    applied/rejected journal lines must equal the counter values and
    the journal length must equal their grand total. A discrepancy
    would mean a change bypassed the validated path. *)
val reconcile : t -> bool
