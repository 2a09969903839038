(** Prime replica state machine — bounded-delay Byzantine replication.

    Prime is the replication engine of Spire. Its distinguishing
    guarantee is {e performance under attack}: a malicious leader cannot
    silently slow the system, because

    + client updates are {e pre-ordered} by all replicas independently of
      the leader (PO-Request dissemination + cumulative PO-ARU vector
      exchange, {!Matrix});
    + the leader's only job is to periodically propose a {e summary
      matrix} of everyone's vectors; whether it does so promptly is
      measurable by every replica (the {e turnaround time}, TAT);
    + a leader whose measured TAT exceeds the acceptable bound —
      computed from measured network round-trips — is {e suspected}, and
      [f + k + 1] suspicions trigger a deterministic leader rotation.

    Hence a faulty leader can delay updates by at most the TAT bound
    before losing the role, whereas the PBFT baseline ({!Pbft.Replica})
    tolerates delays up to its full request timeout forever.

    Simplifications (documented in DESIGN.md): PO-Acks are folded into
    the cumulative PO-ARU exchange; signatures/certificates are carried
    by the authenticated transport; reconciliation fetches missing
    bodies by broadcast request. The timing-relevant message flow
    matches the published protocol.

    Vote state is plain ints: a slot's prepares and commits, its
    catch-up repliers per matrix digest, the suspicions and view
    evidence per view and the voters of each checkpoint are
    {!Bft.Replica_set.t} bitmasks, and the slot, pre-order and per-view
    tables are {!Bft.Tbl} instances keyed by ints. Votes that outrun
    their pre-prepare wait in a short per-slot list. *)

type config = {
  quorum : Bft.Quorum.t;
  epoch : int;
      (** membership epoch this instance belongs to (0 = genesis); the
          deployment layer tags and filters frames by it — the instance
          carries it so quorum decisions are attributable to one
          membership certificate *)
  aru_interval_us : int;
      (** cadence of cumulative vector (PO-ARU) exchange *)
  proposal_interval_us : int;  (** leader's summary-matrix cadence *)
  tat_threshold_us : int;
      (** acceptable turnaround bound; deployments derive it from the
          network diameter: ~2 x max correct RTT + proposal interval *)
  tat_violations_to_suspect : int;
  viewchange_timeout_us : int;
  checkpoint_interval : int;  (** executions between checkpoints *)
  watchdog_interval_us : int;
  recon_retry_us : int;  (** retry cadence for missing bodies/slots *)
  batch : Bft.Batch.policy;
      (** pre-order aggregation: own submissions accumulate until
          [max_batch] or [max_delay_us] and ship as one [Po_batch]
          occupying consecutive po_seqs; under [Batch.singleton]
          (default) every submission flushes alone as a legacy
          [Po_request] *)
}

(** [default_config quorum] uses LAN-scale defaults: 5 ms ARU cadence,
    10 ms proposals, 150 ms TAT bound, 3 violations to suspect. *)
val default_config : Bft.Quorum.t -> config

type t

val create :
  config ->
  Msg.t Bft.Env.t ->
  execute:(int -> Bft.Update.t -> unit) ->
  t
(** [execute idx update]: [idx] is the 1-based global execution index. *)

(** [start t] arms the periodic timers (ARU exchange, proposals,
    watchdog). Call once. *)
val start : t -> unit

(** [submit t update] makes this replica the originator of [update]:
    it assigns a local pre-order sequence and disseminates a
    PO-Request. Duplicate keys already executed or pre-ordered by this
    origin are ignored. *)
val submit : t -> Bft.Update.t -> unit

val handle : t -> from:Bft.Types.replica -> Msg.t -> unit
val faults : t -> Bft.Faults.t
val view : t -> Bft.Types.view
val exec_log : t -> Bft.Exec_log.t

(** [max_tat_us t] is the largest turnaround time observed so far (0 if
    none completed). *)
val max_tat_us : t -> int

(** [suspected t] says whether this replica currently suspects the
    leader of its view. *)
val suspected : t -> bool

(** {1 Runtime tuning plane}

    Live-settable knobs, hot-swapped on a running replica by the
    control layer ({!Control}). Each setter validates its argument and
    takes effect from the next protocol step; none of them sends a
    frame, draws randomness or arms a timer by itself (except
    [demote_leader], whose effects are documented), so with no
    controller issuing changes the trajectory is untouched. The
    pre-order batching policy is fixed at {!create}. *)

(** [tat_threshold_us t] is the current (possibly hot-swapped)
    turnaround bound. *)
val tat_threshold_us : t -> int

(** [set_tat_threshold t us] swaps the TAT suspicion bound; applies to
    the next sample/watchdog check. In-flight probes are judged under
    the new bound.
    @raise Invalid_argument if [us <= 0]. *)
val set_tat_threshold : t -> int -> unit

(** [set_tat_violations_to_suspect t k] swaps the consecutive-violation
    count that triggers suspicion.
    @raise Invalid_argument if [k < 1]. *)
val set_tat_violations_to_suspect : t -> int -> unit

(** [demote_leader t] suspects the current view's leader immediately
    (controller-initiated), bypassing the local TAT evidence count but
    not the protocol: rotation still requires [f + k + 1] distinct
    suspicions, so a lone demotion request cannot depose a correct
    leader. Returns [false] (no-op) if this replica already suspected
    this view, is itself the leader, or is crashed/halted. *)
val demote_leader : t -> bool

(** [retained_suspect_views t] is the number of per-view vote tables
    currently held (suspicions + view-change votes + view evidence).
    Stale views are pruned at every view advance, so this stays bounded
    on long soaks — see the leak regression test. *)
val retained_suspect_views : t -> int

(** [retained_checkpoints t] is the number of checkpoint certificates
    (voter sets per execution count and chain) currently held. Those
    below the stable checkpoint are dropped when it advances. *)
val retained_checkpoints : t -> int

(** {1 Epoch cutover} *)

(** [halt t] stops the instance one-way at an epoch boundary: the
    in-progress eligibility batch (if halting from inside [execute])
    still completes — its release is agreed, so the boundary execution
    count is deterministic across replicas — after which the instance
    neither sends, receives, executes, nor re-arms timers.  The
    successor epoch runs in a fresh instance seeded from
    {!snapshot}-shaped state. *)
val halt : t -> unit

val halted : t -> bool

(** {1 State transfer (used by proactive recovery)} *)

type snapshot = {
  snap_exec_count : int;
  snap_chain : Cryptosim.Digest.t;
  snap_cursor : Matrix.vector;  (** per-origin executed cursor *)
  snap_last_applied : Bft.Types.seqno;
  snap_cum_matrix : Matrix.t;
  snap_view : Bft.Types.view;
  snap_delivery : Bft.Delivery.state;
      (** exactly-once delivery filter state (per-client cursors) *)
}

(** [snapshot t] captures the durable application-visible state. *)
val snapshot : t -> snapshot

(** [snapshot_digest s] identifies a snapshot for f+1 cross-validation. *)
val snapshot_digest : snapshot -> Cryptosim.Digest.t

(** [install_snapshot t s] adopts [s], discarding transient protocol
    state. The replica's own pre-order sequence counter survives (it is
    identity, not state — see DESIGN.md on recovery). *)
val install_snapshot : t -> snapshot -> unit

(** [unresponsive t ~threshold_us] lists peers from which nothing has
    been received for at least [threshold_us] — the local evidence fed
    into accusation-based reactive recovery. *)
val unresponsive : t -> threshold_us:int -> Bft.Types.replica list

(** [set_on_fall_behind t f] — [f] fires (rate-limited) when a quorum
    checkpoint certificate proves this replica is too far behind for
    slot retrieval to catch it up; the deployment should respond with a
    state transfer. *)
val set_on_fall_behind : t -> (unit -> unit) -> unit

(** [set_on_apply t f] — [f seq digest] fires each time this replica
    applies ordering slot [seq], whose matrix has [digest] (the input of
    the slot-finality oracle). *)
val set_on_apply : t -> (Bft.Types.seqno -> Cryptosim.Digest.t -> unit) -> unit
