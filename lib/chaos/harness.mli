(** End-to-end chaos run: system + schedule + always-on oracles.

    A run's virtual timeline has four windows:

    {v
    |-- baseline --|-- turbulence (schedule) --|-- settle --|-- post --|
        fault-free     faults inject + heal       drain       back to
        reference                                in-flight    normal?
    v}

    Oracles watched throughout:
    - {b agreement}: every correct replica that applies an ordering
      slot applies the same matrix there (slot finality, checked at
      every apply), and correct replicas' execution logs stay
      prefix-compatible and application states agree (sampled
      periodically);
    - {b sla}: every confirmed update meets the bounded-delay SLA — the
      strict calm bound outside the turbulence window, a relaxed bound
      for updates submitted while faults were active (attribution is by
      submission time, with a guard for updates already in flight when
      the first fault lands);
    - {b quorum}: availability of correct, connected, non-recovering
      replicas never drops below the ordering quorum;
    - {b recovery}: after healing and settling, updates confirm again
      and median latency returns to within a factor of the baseline.

    The windows and bounds are fixed: the paper's 6-replica wide-area
    deployment with 3 substations, a 3 s baseline, 6 s of turbulence,
    4.5 s of settle and 4 s post-heal (17.5 s virtual per run); a calm
    bound of 250 ms and a turbulent bound of 20 s, with updates
    submitted up to 1 s before the turbulence held to the latter;
    oracles sampled every 100 ms; post-heal p50 within 3x the baseline
    p50 plus 10 ms. The fault budget derives from the quorum
    ({!Schedule.budget_of_quorum}).

    A report is reproducible from its seed: the same seed rebuilds the
    same system, the same schedule, and the same event interleaving. *)

type report = {
  seed : int64;
  schedule : Schedule.t;
  verdicts : (string * Oracle.Verdict.t) list;
      (** ["agreement"; "sla"; "quorum"; "recovery"] *)
  submitted : int;
  confirmed : int;
  baseline_p50_ms : float;
  post_p50_ms : float;
  min_available : int;
  worst_latency_ms : float;
  agreement_checks : int;
  wire_decode_errors : int;
      (** decode-on-delivery failures; always 0 unless the system config
          sets [wire_debug], and any non-zero value is a codec bug *)
}

(** [clean r] — every oracle passed and no wire decode errors. *)
val clean : report -> bool

(** [failures r] — the failing oracles, if any. *)
val failures : report -> (string * Oracle.Verdict.t) list

val pp_report : Format.formatter -> report -> unit

(** [soak ~seed ()] generates a within-budget schedule from [seed] and
    runs it; the chaos soak property asserts [clean] on the result. *)
val soak : seed:int64 -> unit -> report

(** [run ~seed ~schedule ()] runs an explicit schedule — including
    deliberately over-budget ones, used to prove the oracles fire — on
    [system] (default: the soak deployment) with its seed set to
    [seed]. *)
val run :
  ?system:Spire.System.config -> seed:int64 -> schedule:Schedule.t -> unit -> report

(** {1 Reconfiguration soak}

    A within-budget fault schedule runs {e while} the membership is
    being reconfigured through the ordered stream: a control-center
    failover mid-turbulence, then growth into a pre-provisioned
    standby data center during the settle window. Oracles: agreement
    across the cutovers (slot finality per epoch included), the
    epoch-safety check (at most one quorate epoch, unique certificate
    chain), and post-heal progress. *)

type reconfig_report = {
  rc_seed : int64;
  rc_schedule : Schedule.t;
  rc_verdicts : (string * Oracle.Verdict.t) list;
      (** ["agreement"; "epoch"; "progress"] *)
  rc_final_epoch : int;
  rc_cutovers : (int * int * int) list;
  rc_submitted : int;
  rc_confirmed : int;
  rc_stale_frames : int;
}

val reconfig_clean : reconfig_report -> bool
val pp_reconfig_report : Format.formatter -> reconfig_report -> unit

(** [reconfig_soak ~seed ()] — deterministic in [seed], like {!soak}.
    It runs the soak deployment plus a standby site of 2 replicas. *)
val reconfig_soak : seed:int64 -> unit -> reconfig_report

(** [soak_many ~seeds ()] runs one {!soak} per seed, farmed across
    OCaml domains with {!Sim.Parallel} ([domains] defaults to the
    runtime's recommendation; [1] runs inline). Reports come back in
    seed-list order and are byte-identical regardless of domain count. *)
val soak_many : ?domains:int -> seeds:int64 list -> unit -> report list
