(** Client-side endpoint logic shared by substation proxies and HMIs.

    An endpoint assigns client sequence numbers, submits updates through
    a deployment-provided hook, collects threshold-signature shares from
    replica replies, validates the combined signature, measures
    submission-to-validation latency, and retransmits updates that are
    not confirmed within a timeout (covering origin-replica failures). *)

type t

(** [create ~engine ~client_id ~group ~resubmit_timeout_us ~submit ()] —
    [submit ~attempt update] hands the update to the deployment for
    routing; [attempt] starts at 0 and increments per retransmission.
    [telemetry] (default {!Telemetry.Sink.null}) receives the submit
    and confirmation milestones of every update this endpoint issues.

    [batch] (default {!Bft.Batch.singleton}) aggregates first-attempt
    submissions in a {!Bft.Batch} accumulator: updates accumulate until
    [max_batch] or [max_delay_us]. A flush of one update goes out
    through [submit] (the legacy frame); a larger one through
    [submit_batch] (default: one [submit] per member). Each flushed
    update fires the batched telemetry milestone. Under a singleton
    policy every update flushes alone inside {!send_op} and no timer is
    ever scheduled. Retransmissions always use [submit] individually.

    [shard] (default 0) tags the endpoint's timers (batch flush,
    retransmission watchdog) with the owning engine shard — the field
    shard in a site-partitioned deployment ({!Sim.Shard}). *)
val create :
  ?telemetry:Telemetry.Sink.t ->
  ?batch:Bft.Batch.policy ->
  ?submit_batch:(Bft.Update.t list -> unit) ->
  ?shard:int ->
  engine:Sim.Engine.t ->
  client_id:Bft.Types.client ->
  group:Cryptosim.Threshold.group ->
  resubmit_timeout_us:int ->
  submit:(attempt:int -> Bft.Update.t -> unit) ->
  unit ->
  t

(** [start t] arms the retransmission watchdog. *)
val start : t -> unit

(** [push_group t g] adopts a new epoch's threshold group; the previous
    one is retained (and only it) so in-flight replies signed by the
    outgoing epoch's group still combine during a membership cutover. *)
val push_group : t -> Cryptosim.Threshold.group -> unit

(** [send_op t op] wraps [op] into the next update and submits it. *)
val send_op : t -> Op.t -> Bft.Update.t

(** [handle_reply t reply] ingests one replica's share. Returns
    [Some body] the first time the shares for that update reach the
    threshold and the combined signature verifies; [None] otherwise. *)
val handle_reply : t -> Reply.t -> Reply.body option

(** [set_on_complete t f]: [f update ~latency_us] fires once per
    confirmed update. *)
val set_on_complete : t -> (Bft.Update.t -> latency_us:int -> unit) -> unit

val client_id : t -> Bft.Types.client
val pending_count : t -> int
val completed_count : t -> int
val resubmit_count : t -> int
