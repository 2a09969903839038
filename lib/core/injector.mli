(** The one fault injector: starts and heals every {!Attack.Schedule}
    fault on a running {!System}.

    Each fault is a [start] and a [heal] against the system's injection
    surface: overlay kill/restore/degrade hooks, replica fault knobs,
    site isolation, and crash/restore with state transfer. Injection is
    itself deterministic — the schedule plus the system seed reproduce
    a run exactly. *)

(** [profile_of_system sys] derives the generator/validator profile
    (replica sites and inter-site links) from a built system. *)
val profile_of_system : System.t -> Attack.Schedule.profile

(** [start sys fault] begins [fault] now and returns it with its target
    resolved: a [Leader_delay] becomes a [Clock_skew] on the replica
    leading at this instant. A ramp jumps straight to its peak. *)
val start : System.t -> Attack.Schedule.fault -> Attack.Schedule.fault

(** [heal sys fault] ends a fault that {!start} returned.
    @raise Invalid_argument on an unresolved [Leader_delay]. *)
val heal : System.t -> Attack.Schedule.fault -> unit

(** [apply sys ~offset_us schedule] arms the start and the heal of every
    fault of [schedule], shifted by [offset_us] of virtual time (the
    chaos harness runs a fault-free baseline first); ramps climb in
    four steps. A start or heal that is not in the future runs at once,
    so a plan starting at 0 applied before {!System.start} is in place
    for the first send. *)
val apply : System.t -> offset_us:int -> Attack.Schedule.t -> unit
