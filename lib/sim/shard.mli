(** Per-site ownership partition for simulation state.

    The paper's deployments are geographic: control centers and data
    centers are {e sites}, and all protocol traffic between sites
    crosses a WAN boundary. This module makes that structure explicit in
    the types. A {!partition} assigns every overlay node to exactly one
    shard (= site, plus one shard pooling the field devices), and
    {!boundary} counts every frame that crosses shards.

    Execution is sequential — the engine pops one global
    [(time, seq)]-ordered stream — so ownership records which site's
    state an event touches (the per-shard activity breakdown of
    {!Engine.processed_of}), not which domain runs it.

    Determinism: nothing in this module consults an RNG or ambient
    state. *)

type partition

(** [make ~shards ~owner ~nodes] builds a partition of nodes
    [0 .. nodes-1] where node [i] belongs to shard [owner i].
    @raise Invalid_argument if [shards < 1], [nodes < 0], or [owner]
    returns an out-of-range shard. *)
val make : shards:int -> owner:(int -> int) -> nodes:int -> partition

(** [singleton ~nodes] puts every node in one shard — the trivial
    partition used by tests and callers that don't care about sites. *)
val singleton : nodes:int -> partition

val shards : partition -> int
val nodes : partition -> int

(** [owner_of p node] is the shard owning [node]. *)
val owner_of : partition -> int -> int

(** {1 Inter-shard (WAN) boundary ledger} *)

type boundary

(** [boundary p] is an empty ledger over [p]'s shards. *)
val boundary : partition -> boundary

(** [record b ~src_shard ~dst_shard] counts one frame crossing the
    boundary. No-op when [src_shard = dst_shard]. *)
val record : boundary -> src_shard:int -> dst_shard:int -> unit

(** [total_frames b] is the number of frames recorded across shards. *)
val total_frames : boundary -> int

(** {1 Engine shard mapping}

    By convention the engine reserves its shard tag 0 for control /
    untagged timers; shard [s]'s events are tagged [s + 1]. *)

(** [engine_shard p node] is the engine shard tag for [node]'s
    timers: [1 + owner_of p node]. *)
val engine_shard : partition -> int -> int

(** [engine_shards p] is the shard count an engine needs to attribute
    this partition: [shards p + 1]. *)
val engine_shards : partition -> int
