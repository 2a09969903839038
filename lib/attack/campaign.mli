(** Long-running intrusion campaign model (experiment E9).

    The attacker iterates: pick a variant, spend
    [exploit_development_us] building an exploit for it, then
    periodically attempt intrusions. An attempt against a replica
    succeeds iff the replica currently runs the exploited variant and
    is not down for recovery. A compromise ends when the replica is
    rejuvenated (fresh variant, clean image), at which point the
    exploit no longer applies to it.

    With diversity + proactive recovery the attacker's simultaneous
    holdings stay bounded (the paper's argument); the ablations
    (diversity off / recovery off) let the holdings accumulate. *)

type config = {
  exploit_development_us : int;
      (** time to build an exploit for a newly-targeted variant *)
  attempt_interval_us : int;  (** cadence of intrusion attempts *)
}

type t

(** [create ~engine ~rng ~diversity ~config ~on_compromise ~on_cleanse]
    wires the campaign to a diversity model. [on_compromise r] fires
    when the attacker takes replica [r]; [on_cleanse r] when a
    rejuvenation evicts it. *)
val create :
  engine:Sim.Engine.t ->
  rng:Sim.Rng.t ->
  diversity:Recovery.Diversity.t ->
  config:config ->
  on_compromise:(Bft.Types.replica -> unit) ->
  on_cleanse:(Bft.Types.replica -> unit) ->
  t

(** [start t] begins exploit development against the first target. *)
val start : t -> unit

(** [stop t] halts the campaign. *)
val stop : t -> unit

(** [notify_rejuvenated t replica] must be called when proactive
    recovery rejuvenates [replica]: any compromise of it is cleansed
    and its fresh variant requires a new exploit. *)
val notify_rejuvenated : t -> Bft.Types.replica -> unit

(** [set_recovering t replica flag] marks a replica as down for
    recovery (attempts against it fail while down). *)
val set_recovering : t -> Bft.Types.replica -> bool -> unit

val compromised : t -> Bft.Types.replica list
val compromised_count : t -> int

(** [max_simultaneous t] is the historical maximum of simultaneous
    compromises. *)
val max_simultaneous : t -> int

(** [total_compromises t] counts compromise events over the campaign. *)
val total_compromises : t -> int

(** [exploits_developed t] counts completed exploit developments. *)
val exploits_developed : t -> int
