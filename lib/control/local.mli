(** Per-replica (local-level) resilience estimator.

    The lower level of the DSN-2024 two-level split (Hammar & Stadler,
    "Intrusion Tolerance through Two-Level Feedback Control"): each
    replica periodically folds its own observations — the
    {!Telemetry.Attribution} lifecycle tables plus its Prime TAT alarm
    — into a compact local {e verdict}. Verdicts carry no actuation
    authority; the site-level {!Global} controller aggregates them
    across replicas and is the only component that issues knob
    requests.

    Detection is differential: on every tick the estimator diffs the
    cumulative phase histograms against the previous tick, giving
    {e windowed} means, and compares them to a baseline EMA learned
    while healthy. The attribution pipeline makes the two attack
    families separable by construction:

    - a {e leader attack} (delayed/withheld proposals) balloons the
      [Ordering] phase only — pre-order dissemination is leaderless,
      so [Preorder] stays at baseline;
    - a {e network attack} (inflated WAN latency, congestion) balloons
      [Preorder] (and every other WAN-crossing leg) together. *)

type verdict = Healthy | Leader_slow | Net_slow

type t

(** [create ~replica ()] — [degrade_factor] (default 2.0) is the
    windowed end-to-end mean vs baseline ratio that flags degradation;
    [net_growth_limit] (default 1.5) is the [Preorder] growth ratio
    above which a degradation is attributed to the network rather than
    the leader; [stall_ticks] (default 2) consecutive empty windows
    after confirmed traffic count as a withheld-proposal stall. *)
val create :
  ?degrade_factor:float ->
  ?net_growth_limit:float ->
  ?stall_ticks:int ->
  replica:int ->
  unit ->
  t

val replica : t -> int

(** [observe t ~tat_alarm attribution] ingests one tick. [tat_alarm]
    is the replica's own Prime suspicion state ([Replica.suspected]) —
    direct protocol-level leader evidence that overrides the
    phase-share inference unless the network is independently
    implicated. Returns (and records) the verdict for this tick. *)
val observe : t -> tat_alarm:bool -> Telemetry.Attribution.t -> verdict
