(** PBFT replica state machine (the baseline protocol).

    One instance implements one replica. The deployment layer delivers
    network messages via {!handle} and client updates via {!submit}; the
    instance emits messages through its {!Bft.Env.t} and applies ordered
    updates through the [execute] callback. The leader proposes one
    update per slot at every batching degree: the deployment's
    [max_batch] batches only the client and reply frames around it.

    Simplifications relative to Castro-Liskov PBFT, none of which affect
    the measured behaviour:
    - messages are assumed authenticated by the transport (the overlay
      authenticates links; the simulation's Byzantine repertoire does
      not include forging, as real signatures prevent it);
    - view-change messages carry prepared entries without their
      certificates (certificate verification always succeeds for
      entries sent by correct replicas, and modelled attackers do not
      fabricate entries).

    The essential performance property is retained faithfully: a leader
    is only replaced when a request remains unexecuted for the full
    [request_timeout_us], so a malicious leader that serves each request
    just under the timeout retains the role indefinitely. *)

type config = {
  quorum : Bft.Quorum.t;
  epoch : int;
      (** membership epoch this instance belongs to (0 = genesis);
          tagged and filtered by the deployment layer *)
  request_timeout_us : int;
      (** how long a request may stay unexecuted before the replica
          votes to change views *)
  viewchange_timeout_us : int;
      (** how long to wait for a new view to install before escalating
          to the next one *)
  checkpoint_interval : int;  (** executions between checkpoints *)
  watchdog_interval_us : int;  (** how often timeouts are polled *)
}

(** [default_config quorum] uses the paper-era constants: 2 s request
    timeout, 4 s view-change timeout, checkpoint every 128 executions,
    watchdog every 250 ms. *)
val default_config : Bft.Quorum.t -> config

type t

(** [create config env ~execute] wires a replica; [execute seq update]
    is invoked exactly once per executed non-noop slot in seq order. *)
val create :
  config ->
  Msg.t Bft.Env.t ->
  execute:(Bft.Types.seqno -> Bft.Update.t -> unit) ->
  t

(** [start t] arms the watchdog timer. Call once after creation. *)
val start : t -> unit

(** [submit t update] injects a client request at this replica. *)
val submit : t -> Bft.Update.t -> unit

(** [handle t ~from msg] processes a protocol message from peer [from]. *)
val handle : t -> from:Bft.Types.replica -> Msg.t -> unit

(** [faults t] is the fault-injection handle for this replica. *)
val faults : t -> Bft.Faults.t

val view : t -> Bft.Types.view
val exec_log : t -> Bft.Exec_log.t

(** [retained_checkpoints t] is the number of checkpoint certificates
    (voter sets per sequence and chain, each a {!Bft.Replica_set.t})
    currently held. Those at or below the stable checkpoint are dropped
    when it advances. *)
val retained_checkpoints : t -> int

(** {1 Epoch cutover} *)

(** [halt t] stops the instance one-way at an epoch boundary (no
    further sends, receives, executions or timer re-arms); see
    {!Prime.Replica.halt}. *)
val halt : t -> unit

val halted : t -> bool
