(** Experiment scenario drivers.

    One function per experiment family (see DESIGN.md's experiment
    index); the benchmark harness and the runnable examples both call
    these, so the numbers printed by `bench/main.exe` are reproducible
    from the CLI as well. Every driver asserts replica agreement before
    returning — a safety violation aborts the experiment loudly. *)

type latency_result = {
  hist : Stats.Histogram.t;  (** confirmed-update latencies, ms *)
  series : Stats.Timeseries.t;  (** (confirm time, latency ms) *)
  submitted : int;
  confirmed : int;
  max_view : int;  (** highest view reached by any correct replica *)
  duration_us : int;
}

(** [result_of sys ~duration_us] snapshots the metrics of a system. *)
val result_of : System.t -> duration_us:int -> latency_result

(** [fault_free ?config ~duration_us ()] — experiments E2/E3: the
    wide-area deployment with no faults. *)
val fault_free :
  ?config:System.config -> duration_us:int -> unit -> System.t * latency_result

(** [leader_attack ~protocol ~delay_us ~attack_from_us ~duration_us ()] —
    experiment E4: the leader delays every proposal by [delay_us]
    starting at [attack_from_us]. Under Prime the leader is suspected
    and rotated; under PBFT it keeps the role while latency balloons.
    [tweak] (default identity) post-processes the scenario config —
    e.g. to switch telemetry on. *)
val leader_attack :
  ?tweak:(System.config -> System.config) ->
  protocol:System.protocol ->
  delay_us:int ->
  attack_from_us:int ->
  duration_us:int ->
  unit ->
  System.t * latency_result

(** [proactive_recovery ~rotation_period_us ~recovery_duration_us
     ~duration_us ()] — experiment E5: staggered rejuvenation while the
    polling workload runs. Also returns the recovery events
    [(time_us, phase, replica)]. *)
val proactive_recovery :
  rotation_period_us:int ->
  recovery_duration_us:int ->
  duration_us:int ->
  unit ->
  System.t * latency_result * (int * [ `Begin | `Complete ] * int) list

(** [link_degradation ~mode ~factor ~attack_from_us ~duration_us ()] —
    experiment E6: at [attack_from_us] every inter-control-center WAN
    link's latency is inflated by [factor] (an undetected delay attack:
    links stay "up" so shortest-path routing keeps using them).
    Compare [mode = Shortest] (suffers) against [Redundant 2] / [Flood]
    (first copy wins over clean paths). [tweak] (default identity)
    post-processes the scenario config — e.g. to switch telemetry on. *)
val link_degradation :
  ?tweak:(System.config -> System.config) ->
  mode:Overlay.Net.mode ->
  factor:float ->
  attack_from_us:int ->
  duration_us:int ->
  unit ->
  System.t * latency_result

(** [packet_loss ~mode ~loss ~duration_us ()] — experiment E6b: every
    WAN link between replica sites drops each transmission with
    probability [loss] for the whole run; the overlay's hop-by-hop ARQ
    retransmits. Measures how loss converts into latency per
    dissemination mode. [tweak] post-processes the config as in
    {!link_degradation}. *)
val packet_loss :
  ?tweak:(System.config -> System.config) ->
  mode:Overlay.Net.mode ->
  loss:float ->
  duration_us:int ->
  unit ->
  System.t * latency_result

(** [site_failure ~site ~fail_at_us ~restore_at_us ~duration_us ()] —
    experiment E7: a whole control center is disconnected, then
    restored. Returns per-second mean latency buckets for the timeline
    figure. *)
val site_failure :
  site:int ->
  fail_at_us:int ->
  restore_at_us:int option ->
  duration_us:int ->
  unit ->
  System.t * latency_result

(** [throughput ~substations ~poll_interval_us ~duration_us ()] —
    experiment E8: one point of the scaling sweep; returns the offered
    and confirmed rates plus the latency distribution. [max_batch]
    (default 1 = unbatched) sets the end-to-end batching degree for the
    batch-size sweep, with {!System}'s default 10 ms batch deadline.
    [tweak] (default identity) post-processes the scenario config —
    e.g. to flood the E8 batch sweep's protocol traffic. *)
val throughput :
  ?tweak:(System.config -> System.config) ->
  ?max_batch:int ->
  substations:int ->
  poll_interval_us:int ->
  duration_us:int ->
  unit ->
  System.t * latency_result

(** One epoch-activity sample: per epoch, how many of its replicas are
    live right now and what its ordering quorum is. The epoch-safety
    oracle asserts at most one epoch is ever quorate. *)
type activity_sample = {
  at_us : int;
  per_epoch : (int * int * int) list;  (** (epoch, live, quorum_size) *)
}

type reconfig_result = {
  base : latency_result;
  cutovers : (int * int * int) list;
      (** (epoch, boundary_exec, time_us), oldest first *)
  final_epoch : int;
  final_n : int;
  stale_frames : int;  (** cross-epoch protocol frames dropped *)
  violation : string option;  (** latched epoch-safety violation, if any *)
  max_confirm_gap_us : int;
      (** longest confirmation silence from the first fault to the end
          of the run — the bounded-downtime metric *)
  activity : activity_sample list;
}

(** [reconfiguration ~duration_us ()] — experiment E11: online
    reconfiguration through the ordered stream. The active control
    center is destroyed at t=10s; a failover reconfiguration (promote
    backup, remove dead site) cuts over to epoch 1; the healed site is
    re-admitted as epoch 2; a pre-provisioned standby data center is
    admitted as epoch 3, growing n from 6 to 8 (k: 1 -> 2). Use
    [duration_us >= 50s] for all four phases. *)
val reconfiguration :
  duration_us:int ->
  unit ->
  System.t * reconfig_result

type campaign_result = {
  max_simultaneous_compromised : int;
  total_compromises : int;
  exploits_developed : int;
  time_above_f_us : int;
      (** virtual time with more than f replicas compromised *)
  final_compromised : int;
  mean_held_us : int;
      (** mean time a compromise survived before being cleansed (0 when
          none were cleansed) *)
}

(** [intrusion_campaign ?reactive_on ~diversity_on ~recovery_on
     ~duration_us ()] — experiment E9 and its ablations A3/A4. The
    attacker develops exploits per variant and compromises matching
    replicas; proactive recovery (when on) rejuvenates with fresh
    variants; [reactive_on] (default false, requires recovery) adds
    accusation-based reactive recovery, which cleanses silent
    compromised replicas within seconds instead of waiting for their
    rotation slot. *)
val intrusion_campaign :
  ?reactive_on:bool ->
  diversity_on:bool ->
  recovery_on:bool ->
  duration_us:int ->
  unit ->
  System.t * campaign_result

(** [fleet ~concentrators ~devices ~duration_us ()] — experiment E12:
    the register-mapped device fleet ({!Field}) behind [concentrators]
    data concentrators, with a reduced legacy workload (2 substations,
    1 HMI) so the ordered stream is dominated by fleet aggregates.
    Batching is on ([max_batch = 8]) — hierarchical aggregation plus
    batching is what keeps BFT load independent of fleet size. *)
val fleet :
  concentrators:int ->
  devices:int ->
  duration_us:int ->
  unit ->
  System.t * latency_result

(** The two attacks experiment E13 replays without telling the system
    which one is running. *)
type adaptive_attack =
  | Leader_slowdown of int
      (** the E4 attack: the leader delays every proposal by this many
          microseconds *)
  | Wan_delay of float
      (** the E6 attack: primary inter-site WAN latency inflated by
          this factor (links stay "up") *)

type adaptive_result = {
  base : latency_result;
  post_attack_p99_ms : float;
      (** p99 of confirmations at or after [attack_from_us]; [infinity]
          when nothing confirmed after the attack began *)
  knob_applied : int;  (** knob requests applied (whole run) *)
  knob_rejected : int;  (** knob requests rejected (whole run) *)
  journal_consistent : bool;
      (** {!Control.Knobs.reconcile}: journal matches the counters,
          i.e. no knob changed outside the validated path *)
}

(** [post_attack_p99 series ~from_us] is the p99 latency (ms) of the
    confirmations at or after [from_us], or [infinity] when there are
    none — the comparison metric of E13 (also usable over a later
    window to measure the controller's converged steady state). *)
val post_attack_p99 : Stats.Timeseries.t -> from_us:int -> float

(** [adaptive ~attack ~attack_from_us ~duration_us ()] — experiment
    E13: one arm of the adaptive-resilience comparison. With
    [controller] (default [true]) the two-level feedback controller
    is live and must converge near the best static configuration's
    post-attack p99 without knowing which attack is running; with
    [controller = false] and a [mode] (default [Shortest]) this is a
    static baseline arm. Telemetry is always on so the arms differ
    only in the controller. *)
val adaptive :
  ?controller:bool ->
  ?mode:Overlay.Net.mode ->
  attack:adaptive_attack ->
  attack_from_us:int ->
  duration_us:int ->
  unit ->
  System.t * adaptive_result
