(** Domain pool for independent scenario instances.

    Farms a static set of jobs — E8 sweep points, E10 chaos soak seeds,
    config sweeps — across OCaml 5 domains. Each job must be
    self-contained: build its own engine / system from a seed derived
    with {!seed_of} and share {e no} mutable state with other jobs.
    Under that contract the results are deterministic:

    - results land in an array indexed by job, so the merged output is
      a pure function of the job set — {b byte-identical regardless of
      domain count or which domain ran which job};
    - per-instance seeds come from {!Rng.derive}, a pure function of
      [(root, index)], so scheduling cannot perturb any RNG stream;
    - [domains = 1] runs every job inline on the calling domain with no
      spawns — the mode used to pin golden trajectories.

    Scheduling: every domain pulls the next job index from one shared
    atomic counter until the set is exhausted, so a slow job (e.g. one
    slow chaos seed) holds up only the domain running it. *)

(** [default_domains ()] is the runtime's recommended domain count for
    this machine. *)
val default_domains : unit -> int

(** [seed_of ~root ~index] is the deterministic seed for job [index] of
    a sweep rooted at [root] (alias of {!Rng.derive}). *)
val seed_of : root:int64 -> index:int -> int64

(** [run ~domains ~jobs f] computes [[| f 0; ...; f (jobs - 1) |]]
    using up to [domains] domains (default {!default_domains}; clamped
    to [jobs]; [<= 1] runs inline). If any job raises, the exception of
    the {e lowest-indexed} failing job is re-raised after all workers
    have drained — deterministic even when several jobs fail.
    @raise Invalid_argument if [jobs < 0]. *)
val run : ?domains:int -> jobs:int -> (int -> 'a) -> 'a array

(** [map ~domains f items] is [run] over an array of inputs. *)
val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
