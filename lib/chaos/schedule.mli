(** Declarative, deterministically-seeded fault schedules.

    A schedule is a list of timed fault injections over a finite
    horizon; every fault carries its own healing time, so a valid
    schedule is fully healed at the horizon. Faults compose — several
    may be active at once — subject to a {!budget} that mirrors the
    paper's resilience envelope: at most [f] Byzantine replicas, at
    most [k] down/recovering, at most one severed link or one tolerated
    site partition at a time, so at least one correct path and an
    ordering quorum always survive.

    The {!generate} sampler draws random schedules from a seed; the same
    seed always yields the same schedule, which is how a failing soak
    run is reproduced. {!validate} is the budget checker; the generator
    only emits schedules that validate, and hand-written over-budget
    schedules (used to prove the oracles are not vacuous) are exactly
    the ones it rejects. *)

(** The fault repertoire. Replica indices and overlay nodes coincide
    for replicas (node [r] hosts replica [r]). *)
type fault =
  | Link_flap of { a : int; b : int; down_us : int }
      (** overlay link severed, restored after [down_us] *)
  | Daemon_churn of { replica : int; down_us : int }
      (** the replica's overlay daemon goes down (the replica process
          keeps running, disconnected); models daemon crash/restart *)
  | Partition_site of { site : int; heal_after_us : int }
      (** a whole replica site is cut off the overlay, then healed *)
  | Loss_ramp of { a : int; b : int; peak : float; ramp_us : int; hold_us : int }
      (** gray failure: per-transmission loss climbs to [peak] over
          [ramp_us], holds for [hold_us], then clears *)
  | Latency_ramp of {
      a : int;
      b : int;
      peak_factor : float;
      ramp_us : int;
      hold_us : int;
    }  (** gray failure: propagation delay inflates to [peak_factor]x *)
  | Crash_restart of { replica : int; down_us : int }
      (** replica process crash; restart resynchronises by state
          transfer *)
  | Silence of { replica : int; duration_us : int }
      (** Byzantine: processes input, sends nothing *)
  | Clock_skew of { replica : int; delay_us : int; duration_us : int }
      (** the replica's proposal timers run [delay_us] late — the
          slowdown attack as produced by a skewed clock *)
  | Message_delay of { replica : int; factor : float; duration_us : int }
      (** every link adjacent to the replica delays by [factor]x *)

type event = { at_us : int; fault : fault }

type t = { horizon_us : int; events : event list }

(** Static description of the deployment the generator samples against. *)
type profile = {
  n : int;
  quorum : Bft.Quorum.t;
  sites : (int * int list) list;  (** replica site -> members *)
  wan_links : (int * int) list;  (** inter-site links between replicas *)
}

(** Concurrency budget. A schedule within the budget must be survivable:
    the chaos soak asserts that every oracle stays green under any
    generated schedule. *)
type budget = {
  max_byzantine : int;  (** concurrent Silence/Clock_skew, <= f *)
  max_down : int;  (** concurrent Crash_restart/Daemon_churn, <= k *)
  max_link_cuts : int;  (** concurrent Link_flap *)
  max_gray : int;  (** concurrent loss/latency/message-delay faults *)
  allow_partition : bool;
}

(** [budget_of_quorum q] is the paper's envelope: [f] Byzantine, [k]
    down, one link cut, partitions of tolerated sites allowed. *)
val budget_of_quorum : Bft.Quorum.t -> budget

(** [duration_us fault] is the fault's active span (injection to heal). *)
val duration_us : fault -> int

(** [validate ~profile ~budget t] checks that every fault heals within
    the horizon, concurrency stays within the budget, a partition never
    overlaps a Byzantine/down/link fault, no partitioned site exceeds
    [f + k] replicas, and no two concurrent faults share a target
    resource. *)
val validate :
  profile:profile -> budget:budget -> t -> (unit, string) result

(** [generate ~profile ~budget ~seed ~horizon_us] samples a random
    schedule that satisfies [validate]. Deterministic in [seed]. *)
val generate :
  profile:profile -> budget:budget -> seed:int64 -> horizon_us:int -> t

val pp : Format.formatter -> t -> unit
