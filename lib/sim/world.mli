(** The ownership root of one simulation instance.

    A [World.t] bundles everything mutable a scenario instance owns —
    engine (clock, timer queue, root RNG), trace ring, and the site partition —
    into one explicit, passed-down value. Nothing in the simulator
    hangs off module toplevels, so a world is self-contained: any number
    of worlds can be created from distinct seeds and run concurrently on
    different domains (see {!Parallel}), with no shared mutable state
    between them. One world must only be driven from one domain at a
    time. *)

type t

(** [create ~seed ~shards ()] is a fresh world whose engine attributes
    events to [shards] shards (default 1). [trace_capacity] bounds the retained
    debug-trace records (default 1024; tracing starts disabled). *)
val create : ?seed:int64 -> ?shards:int -> ?trace_capacity:int -> unit -> t

val seed : t -> int64
val engine : t -> Engine.t
val trace : t -> Trace.t

(** [rng w] derives a fresh independent stream from the engine's root
    stream (same derivation order as {!Engine.rng}). *)
val rng : t -> Rng.t

(** [now w] is the engine's current virtual time, in microseconds. *)
val now : t -> int

(** The site partition, once the topology is known. [set_partition]
    is called exactly once, by the system constructor. *)
val partition : t -> Shard.partition option

val set_partition : t -> Shard.partition -> unit
