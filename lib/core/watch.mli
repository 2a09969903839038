(** The safety watch: the one home of the deployment's safety oracles.

    [create] hooks the system: every slot a replica applies while it is
    {!System.correct} feeds {!Oracle.Slot_finality}, and every cutover
    feeds its certificate (epoch, boundary, digest) to
    {!Oracle.Epoch_check}. [sample] adds one agreement observation
    ({!System.observe_agreement}) and one epoch-activity observation (at
    most one epoch quorate). The watch arms no timer: its caller samples
    at its own cadence and once more at the end of the run. *)

type t

val create : System.t -> t

(** [sample t] observes agreement and epoch activity now. *)
val sample : t -> unit

(** [agreement t] — slot finality combined with the sampled logs and
    states; finality reports first, since it fires at the apply. *)
val agreement : t -> Oracle.Verdict.t

(** [epoch t] — the epoch-safety verdict, with
    {!System.epoch_violation} latched in. *)
val epoch : t -> Oracle.Verdict.t

(** [epoch_observations t] counts activity samples and cutovers. *)
val epoch_observations : t -> int
