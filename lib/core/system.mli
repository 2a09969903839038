(** The full Spire system wired over the intrusion-tolerant overlay.

    A [System.t] instantiates, on one simulation engine:
    - an overlay network whose sites contain the SCADA-master replicas
      (control centers + data centers), one overlay node per replica,
      plus one node per substation proxy and per HMI, each multi-homed
      to both control centers;
    - [n = 3f + 2k + 1] replicas running Prime (or the PBFT baseline
      for comparisons), each with its own deterministic SCADA master
      application;
    - substation proxies polling emulated RTUs over byte-level DNP3 and
      submitting status updates as ordered client updates;
    - HMIs issuing supervisory commands;
    - threshold-signed replica replies validated by the clients, which
      is where end-to-end latency is measured;
    - optional proactive recovery (diversity redraw + state transfer)
      and attack injection hooks.

    This is the object every experiment in the benchmark harness
    drives. *)

type protocol = Prime_protocol | Pbft_protocol

(** The overlay payload is the wire-layer message union: every frame
    the system sends has an exact byte-level encoding
    ({!Wire.Envelope.encode}), and the overlay charges that length. *)
type payload = Wire.Message.t

type config = {
  quorum : Bft.Quorum.t;
      (** also fixes the site layout: {!site_sizes} *)
  protocol : protocol;
  standby_site_sizes : int list;
      (** pre-provisioned dark sites (laid out after the active ones):
          their replicas exist as inert placeholders with dead overlay
          nodes and join the deployment only when an ordered
          reconfiguration admits them into an epoch's membership.
          Default [[]] — an empty list reproduces the fixed-membership
          system bit-for-bit. *)
  substations : int;
  hmis : int;
  poll_interval_us : int;
  dissemination : Overlay.Net.mode;  (** how protocol traffic is routed *)
  resubmit_timeout_us : int;
  max_batch : int;
      (** end-to-end batching degree: client endpoints (proxies and
          HMIs), Prime's pre-order path and replica replies all
          aggregate up to this many updates per frame through one
          {!Bft.Batch} accumulator each. The PBFT baseline batches its
          client and reply frames but always proposes one update per
          slot. [1] (default) reproduces the unbatched system
          bit-for-bit: every update flushes alone as the legacy frame
          and no batch timer is ever armed. *)
  batch_delay_us : int;
      (** deadline bound, >= 0: a partial batch flushes at most this
          long after its oldest member arrived (ignored when
          [max_batch] is 1) *)
  field_concentrators : int;
      (** number of data concentrators fronting the modeled device
          fleet ({!Field.Concentrator}); each is an ordinary BFT
          client. [0] (default) disables the fleet entirely: no
          clients, no timers, no RNG draws, no frames — bit-identical
          to a build without [lib/field]. *)
  field_devices : int;
      (** total register-mapped devices, split (evenly, remainder to
          the low-numbered concentrators) across [field_concentrators] *)
  field_scan_interval_us : int;
      (** fleet scan-round cadence; each concentrator also issues one
          supervisory write per second *)
  field_loss : float;  (** per-round keep-alive loss probability *)
  diversity_variants : int;
  seed : int64;
  wire_debug : bool;
      (** re-decode every delivered frame through the wire codecs and
          count mismatches (see {!wire_decode_errors}); off by default *)
  telemetry : bool;
      (** trace every update's lifecycle (and per-hop overlay activity
          of the frames carrying it) into a {!Telemetry.Sink}; off by
          default — the disabled hot path costs one bool/int compare
          per potential span *)
  adaptive : bool;
      (** enable the two-level adaptive-resilience controller
          ({!Control.Local} per replica + one {!Control.Global}), ticking
          every 250 ms and actuating through the knob plane.
          Off by default: a disabled controller allocates nothing
          observable, arms no timer and draws no randomness, so the
          trajectory is bit-identical to a build without [lib/control].
          The controller senses through the telemetry sink, so
          {!create} rejects [adaptive] without [telemetry]. *)
  tweak_prime : Prime.Replica.config -> Prime.Replica.config;
}

(** [default_config ()] is the paper's wide-area deployment shape:
    f=1, k=1, n=6 over 4 sites (2 control centers with 2 replicas, 2
    data centers with 1), 100 µs 1 Gbps LAN links, east-coast WAN
    latencies at 100 Mbps, 2 ms substation/HMI links to each control
    center, 10 substations polling every 100 ms, 1 HMI, Prime
    protocol, shortest-path dissemination. *)
val default_config : unit -> config

(** [site_sizes cfg] is the active replicas per site: the quorum's [n]
    spread over four sites by {!Config_calc.spread}, the two control
    centers first. *)
val site_sizes : config -> int list

type t

(** [create cfg] builds the deployment.
    @raise Invalid_argument ["System.create: <field> …"] naming the
    field if the config is garbage: a [quorum] whose {!site_sizes}
    leave a site empty or fail {!Config_calc.tolerates_site_loss}, a
    negative [standby_site_sizes] entry, more than
    {!Bft.Quorum.max_n} active plus standby replicas (telemetry counts
    replica sets as the bits of one int), [substations < 0], [hmis < 0],
    [poll_interval_us <= 0], [resubmit_timeout_us <= 0],
    [diversity_variants < 1], [max_batch < 1], [batch_delay_us < 0], [field_concentrators < 0],
    [field_devices < field_concentrators] (with concentrators),
    [field_scan_interval_us <= 0], [field_loss] outside [0, 1] (nan
    included), or [adaptive] without [telemetry] (a controller that
    would see nothing). *)
val create : config -> t

(** [start t] arms every component (replicas, proxies, HMIs). *)
val start : t -> unit

(** [run t ~duration_us] advances virtual time by [duration_us]. *)
val run : t -> duration_us:int -> unit

val engine : t -> Sim.Engine.t
val config : t -> config
val net : t -> payload Overlay.Net.t

(** [telemetry t] is the system's span sink: live when the config set
    [telemetry = true], a per-instance disabled sink otherwise. Feed it
    to {!Telemetry.Attribution} / {!Telemetry.Export} after a run. *)
val telemetry : t -> Telemetry.Sink.t

(** {1 Runtime tuning plane}

    Every live parameter change — issued by the adaptive controller or
    by a test — flows through {!Control.Knobs.request} on [knobs t];
    the installed actuator translates validated requests onto the
    running components: routing mode ({!Overlay.Net}, with route-cache
    invalidation; in-flight frames keep their submit-time route), Prime
    TAT suspicion knobs, and leader demotion (one suspicion per correct
    replica; rotation still needs the [f+k+1] protocol quorum). The
    batching policy ([max_batch], [batch_delay_us]) and the recovery
    rotation are fixed at {!create}. The journal plus the
    applied/rejected counters are the complete audit trail. *)

(** [knobs t] is the instance's tuning plane (always present; with no
    requests issued it never acts). *)
val knobs : t -> Control.Knobs.t

(** [dissemination t] is the live mode future sends will use. *)
val dissemination : t -> Overlay.Net.mode

(** {1 Component access} *)

(** [replica_count t] — the genesis (epoch-0) active replica count [n].
    Unchanged by reconfiguration: the live membership is the current
    certificate of {!directory}, and {!universe_count} counts active +
    standby. *)
val replica_count : t -> int

(** [universe_count t] — all provisioned replicas, active and standby.
    Global replica ids range over [0 .. universe_count - 1]. *)
val universe_count : t -> int

val proxy : t -> int -> Scada.Proxy.t
val hmi : t -> int -> Scada.Hmi.t
val concentrator : t -> int -> Field.Concentrator.t
val concentrator_count : t -> int

(** [fleet_stats t] rolls the per-concentrator {!Field.Concentrator.stats}
    up across the whole fleet (sums, except [rounds] which is the max —
    concentrators scan at one cadence). All-zero when the fleet is
    disabled. *)
val fleet_stats : t -> Field.Concentrator.stats
val master : t -> Bft.Types.replica -> Scada.Master.t
val faults : t -> Bft.Types.replica -> Bft.Faults.t

(** [view_of t r] is replica [r]'s protocol view. *)
val view_of : t -> Bft.Types.replica -> Bft.Types.view

val exec_log : t -> Bft.Types.replica -> Bft.Exec_log.t
val node_of_replica : t -> Bft.Types.replica -> Overlay.Topology.node
val site_of_replica : t -> Bft.Types.replica -> Overlay.Topology.site

(** {1 Metrics} *)

(** [latency_histogram t] — all confirmed client updates, milliseconds. *)
val latency_histogram : t -> Stats.Histogram.t

(** [latency_series t] — (confirmation time, latency ms) samples. *)
val latency_series : t -> Stats.Timeseries.t

val confirmed_updates : t -> int
val submitted_updates : t -> int

(** [wire_traffic t] — per message-kind traffic totals as
    [(kind, frames, bytes)], descending by bytes. Kinds are
    {!Wire.Message.kind} labels (e.g. ["prime/preprepare"]); bytes are
    full frame lengths including envelope overhead. *)
val wire_traffic : t -> (string * int * int) list

(** [wire_decode_errors t] — frames whose decode-on-delivery round-trip
    failed. Always 0 unless [wire_debug] is set; any non-zero value is
    a codec bug. *)
val wire_decode_errors : t -> int

(** [assert_agreement t] runs {!Oracle.Agreement}'s checks over every
    pair of correct replicas: execution logs are prefix-compatible, and
    masters that applied the same number of updates have equal state
    digests. @raise Failure on divergence (a safety violation). *)
val assert_agreement : t -> unit

(** {1 Proactive recovery} *)

(** [enable_recovery t ~rotation_period_us ~recovery_duration_us]
    starts staggered rejuvenation with [max_concurrent = k]. Prime
    only. Returns the scheduler for introspection.
    @raise Invalid_argument on the PBFT baseline or k = 0. *)
val enable_recovery :
  t -> rotation_period_us:int -> recovery_duration_us:int -> Recovery.Scheduler.t

val diversity : t -> Recovery.Diversity.t

(** [enable_reactive_recovery t ~silence_threshold_us ~poll_interval_us]
    adds accusation-based reactive recovery on top of the proactive
    rotation: a replica that [f+k+1] live peers have not heard from for
    [silence_threshold_us] is rejuvenated immediately (within the same
    [k]-concurrency budget). Requires {!enable_recovery} first.
    @raise Invalid_argument otherwise. *)
val enable_reactive_recovery :
  t -> silence_threshold_us:int -> poll_interval_us:int -> unit

(** [on_recovery_event t f] registers [f `Begin r | `Complete r]. *)
val on_recovery_event :
  t -> ([ `Begin | `Complete ] -> Bft.Types.replica -> unit) -> unit

(** {1 Attack and failure injection} *)

(** [set_leader_delay t ~delay_us] makes the current leader delay every
    proposal — the performance attack of experiment E4. *)
val set_leader_delay : t -> delay_us:int -> unit

(** [kill_site t site] takes a whole site down hard: overlay nodes down
    AND replicas crashed. [restore_site] reverses it, resynchronising
    the replicas by state transfer. *)
val kill_site : t -> Overlay.Topology.site -> unit

val restore_site : t -> Overlay.Topology.site -> unit

(** [isolate_site t site] models the paper's network attack precisely:
    the site's overlay daemons are unreachable but its replicas keep
    running. [reconnect_site] restores connectivity; the replicas adopt
    the quorum's installed view from peer traffic and catch up through
    batched slot retrieval. *)
val isolate_site : t -> Overlay.Topology.site -> unit

val reconnect_site : t -> Overlay.Topology.site -> unit

(** [crash_replica t r] / [restore_replica t r]: single-replica
    granularity. *)
val crash_replica : t -> Bft.Types.replica -> unit

val restore_replica : t -> Bft.Types.replica -> unit

(** {1 Online reconfiguration}

    Membership changes travel through the ordered stream as
    {!Scada.Op.Reconfig} commands. Executing one makes every replica of
    the issuing epoch halt at a deterministic boundary (the execution
    count after its eligibility batch drains), derive the successor
    certificate with that boundary stamped in, and restart as a fresh
    protocol instance over the new membership — carrying application
    state and exactly-once delivery cursors across. Replicas the new
    epoch drops are retired (halted, overlay id retired); newly admitted
    or lagging members are caught up by a background reconciler through
    an [f+1]-vouched, chunk-gated state transfer guarded by the
    bounded-backoff ARQ. Prime only. *)

(** [directory t] — the deployment's shared certificate chain. *)
val directory : t -> Member.Directory.t

(** [current_epoch t] — highest epoch any replica has activated. *)
val current_epoch : t -> int

(** [stale_epoch_frames t] — protocol frames dropped because their
    epoch tag (or sender) did not match the receiving instance. *)
val stale_epoch_frames : t -> int

(** [cutovers t] — completed epoch activations as
    [(epoch, boundary_exec, time_us)], oldest first. *)
val cutovers : t -> (int * int * int) list

(** [epoch_violation t] — latched description of the first epoch-safety
    violation observed (boundary disagreement, unknown epoch), if any.
    [None] in every correct run. *)
val epoch_violation : t -> string option

(** [on_epoch_change t f] — [f epoch] fires at each cutover. *)
val on_epoch_change : t -> (int -> unit) -> unit

(** [on_slot_applied t f] — [f ~replica ~epoch ~seq ~digest] fires each
    time a Prime replica applies ordering slot [seq] of [epoch], whose
    matrix has [digest]. The PBFT baseline reports nothing. *)
val on_slot_applied :
  t ->
  (replica:Bft.Types.replica ->
  epoch:int ->
  seq:Bft.Types.seqno ->
  digest:Cryptosim.Digest.t ->
  unit) ->
  unit

(** [submit_reconfig t actions] issues the reconfiguration through HMI
    0's endpoint as an ordered client update.
    @raise Invalid_argument on the PBFT baseline or without an HMI. *)
val submit_reconfig : t -> Member.Reconfig.action list -> unit

(** [heal_site_nodes t site] boots a site's overlay daemons and clears
    its crash flags WITHOUT state transfer — the reconciler then walks
    its (retired or stale) replicas through a certified rejoin if the
    current membership includes them. *)
val heal_site_nodes : t -> Overlay.Topology.site -> unit

(** [epoch_activity t] — instantaneous per-epoch live-replica counts
    [(epoch, live)], ascending by epoch. Fed to the epoch-safety
    oracle: at most one epoch may ever hold a quorum of live
    replicas. *)
val epoch_activity : t -> (int * int) list
