(** Bounded-delay SLA monitor over delivered client updates.

    The paper's headline timeliness property is that SCADA updates are
    confirmed within a bounded delay even under attack. This oracle
    watches every confirmed update's end-to-end latency against a
    two-level bound:

    - during {e calm} phases (no fault active, system settled) every
      update must confirm within [calm_bound_ms] — the paper's
      steady-state bound;
    - during {e turbulent} phases (faults being injected, or the settle
      window right after healing) the bound relaxes to
      [turbulent_bound_ms], which still caps the damage: client
      resubmission and failover must recover every update within a few
      retransmission timeouts, or something is genuinely wedged.

    The driving harness flips the phase as its fault schedule starts
    and drains. Violations latch. *)

type phase = Turbulent | Calm

type t

(** [create ~turbulent_bound_ms ~calm_bound_ms] starts in [Calm].
    @raise Invalid_argument if the calm bound exceeds the turbulent
    bound. *)
val create : turbulent_bound_ms:float -> calm_bound_ms:float -> t

val set_phase : t -> phase -> unit

(** [observe t ~time_us ~latency_ms] feeds one confirmed update. *)
val observe : t -> time_us:int -> latency_ms:float -> unit

val verdict : t -> Verdict.t

(** [samples t] counts updates observed. *)
val samples : t -> int

(** [worst_ms t] is the worst latency seen in any phase;
    [worst_calm_ms t] the worst seen during calm phases. *)
val worst_ms : t -> float

val worst_calm_ms : t -> float
