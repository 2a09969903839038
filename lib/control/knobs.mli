(** Runtime tuning plane: the validated actuation path.

    Every live parameter change in a running deployment — issued by the
    adaptive controller ({!Local}/{!Global}) or by a test — flows
    through one [Knobs.t]: the request is validated against static
    bounds, handed to the deployment-installed actuator, and recorded in
    an append-only change journal together with applied/rejected
    counters. The journal and the counters reconcile by construction
    ({!reconcile}), which is what lets the E13 oracle assert that
    {e no} knob changed outside the plane.

    The plane carries exactly the knobs the controller turns: the
    overlay's dissemination mode and Prime's turnaround-time (TAT)
    suspicion. Batching and the proactive-recovery rotation are fixed
    when the deployment is built. This module is deliberately
    dependency-free (it names routing modes abstractly): the deployment
    layer ([Spire.System]) owns the translation onto [Overlay.Net] and
    [Prime.Replica]. *)

(** Dissemination mode, mirrored from [Overlay.Net.mode] without the
    dependency. *)
type routing = Shortest | Kdisjoint of int | Flooding

type request =
  | Set_routing of routing
  | Set_tat_threshold_us of int  (** Prime turnaround suspicion bound *)
  | Set_tat_violations of int  (** consecutive violations to suspect *)
  | Demote_leader
      (** suspect the current leader on every correct replica now *)

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
    cannot honour it (e.g. a TAT knob on a PBFT deployment); the
    rejection is journalled like a validation failure. Until an
    actuator is installed every request is rejected. *)
val set_actuator : t -> (request -> (unit, string) result) -> unit

(** [request t ~now_us ~source r] is the only way to change a knob:
    validate, actuate, journal, count. Returns the actuation outcome.
    Validation rejects nonsense before the actuator is consulted:
    [Kdisjoint] outside [2 .. 8], a TAT threshold outside
    [1 ms .. 60 s] and TAT violations outside [1 .. 100]. *)
val request : t -> now_us:int -> source:string -> request -> (unit, string) result

(** [journal t] — every entry, oldest first. *)
val journal : t -> entry list

val total_applied : t -> int
val total_rejected : t -> int

(** [reconcile t] checks the journal against the counters: the applied
    journal lines must equal the applied counter and the journal length
    must equal the sum of both counters. A discrepancy would mean a
    change bypassed the validated path. *)
val reconcile : t -> bool
