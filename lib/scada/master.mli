(** The SCADA master application state machine.

    This is the state machine that Spire replicates: each replica feeds
    it the totally-ordered update stream, and all correct replicas hold
    byte-identical state. It tracks the last reported status of every
    substation, operator command intents, and an event counter, and it
    yields the {e effect} each update produces (e.g. a device command to
    forward to a substation proxy).

    Determinism contract: [apply] is a pure function of the state and
    the operation sequence — no clocks, no randomness — so the state
    digest is comparable across replicas. *)

type t

type effect =
  | No_effect
  | Device_command of { rtu : int; command : Dnp3.app }
      (** forward to the substation proxy, which actuates the RTU *)
  | Read_result of { hmi_id : int; state : Cryptosim.Digest.t }

val create : unit -> t

(** [apply t op] transitions the state and returns the effect. *)
val apply : t -> Op.t -> effect

(** [applied_count t] is the number of operations applied. *)
val applied_count : t -> int

(** [state_digest t] is a running digest over the applied sequence and
    resulting state — equal across replicas iff they applied the same
    sequence. *)
val state_digest : t -> Cryptosim.Digest.t

(** [last_status t ~rtu] is the most recent status report applied for
    [rtu], if any. *)
val last_status : t -> rtu:int -> Rtu.status option

(** [breaker_intent t ~rtu ~breaker] is the operator's last commanded
    state for a breaker, if any command was applied. *)
val breaker_intent : t -> rtu:int -> breaker:int -> Rtu.breaker_state option

(** [known_rtus t] lists RTU ids with at least one applied report,
    ascending. *)
val known_rtus : t -> int list

(** [stale_rtus t ~now_seq ~window] lists RTUs whose latest report
    sequence number lags the given poll sequence horizon by more than
    [window] — the master's view of "substation possibly down". *)
val stale_rtus : t -> now_seq:int -> window:int -> int list

(** {1 State transfer} *)

(** [snapshot_digest t] = [state_digest t] (alias used by recovery). *)
val snapshot_digest : t -> Cryptosim.Digest.t

(** [clone t] deep-copies the state (state transfer to a recovering
    replica). *)
val clone : t -> t
