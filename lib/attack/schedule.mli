(** Declarative, deterministically-seeded fault schedules.

    A schedule is a list of timed fault injections over a finite
    horizon; every fault carries its own healing time, so a valid
    schedule is fully healed at the horizon. Faults compose — several
    may be active at once — subject to the paper's resilience envelope,
    derived from the profile's quorum: at most [f] Byzantine replicas,
    at most [k] down/recovering, at most one severed link, at most
    three gray links, and at most one lost site of at most [f + k]
    replicas at a time, so at least one correct path and an ordering
    quorum always survive.

    The {!generate} sampler draws random schedules from a seed; the same
    seed always yields the same schedule, which is how a failing soak
    run is reproduced. {!validate} is the budget checker; the generator
    only emits schedules that validate, and hand-written over-budget
    schedules (used to prove the oracles are not vacuous) are exactly
    the ones it rejects. Every experiment's fault plan is a schedule
    too, checked against the same budget. *)

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
  | Leader_delay of { delay_us : int; duration_us : int }
      (** Byzantine: whichever replica leads when the fault starts
          delays every proposal by [delay_us] (experiment E4) *)
  | Wan_delay of { factor : float; duration_us : int }
      (** gray: every {!primary_links} link delays by [factor]x — the
          undetected delay attack of experiment E6 *)
  | Wan_loss of { loss : float; duration_us : int }
      (** gray: every [wan_links] link drops each transmission with
          probability [loss] (experiment E6B) *)
  | Site_kill of { site : int; down_us : int }
      (** every replica of a site crashes at once; the heal restarts
          them through state transfer (experiment E7) *)

type event = { at_us : int; fault : fault }

type t = { horizon_us : int; events : event list }

(** Static description of the deployment the generator samples against. *)
type profile = {
  n : int;
  quorum : Bft.Quorum.t;
  sites : (int * int list) list;  (** replica site -> members *)
  wan_links : (int * int) list;  (** inter-site links between replicas *)
}

(** [primary_links profile] are the [wan_links] joining the first
    replica (the gateway) of two sites. *)
val primary_links : profile -> (int * int) list

(** [duration_us fault] is the fault's active span (injection to heal). *)
val duration_us : fault -> int

(** [validate ~profile t] checks that every fault heals within the
    horizon and has finite parameters the overlay accepts (latency
    factors >= 1, loss in [0,1)), concurrency stays within the budget
    ([Wan_delay] and [Wan_loss] count once per link they touch), a lost
    site ([Partition_site], [Site_kill]) never overlaps a
    Byzantine/down/link fault and holds at most [f + k] replicas, and
    no two concurrent faults share a target resource. *)
val validate : profile:profile -> t -> (unit, string) result

(** [generate ~profile ~seed ~horizon_us] samples a random schedule of
    the first nine kinds that satisfies [validate]. Deterministic in
    [seed]. *)
val generate : profile:profile -> seed:int64 -> horizon_us:int -> t

val pp : Format.formatter -> t -> unit
