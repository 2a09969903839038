(** Per-site ownership partition for simulation state.

    The paper's deployments are geographic: control centers and data
    centers are {e sites}, and all protocol traffic between sites
    crosses a WAN boundary. This module makes that structure explicit in
    the types. A {!partition} assigns every overlay node to exactly one
    shard (= site, plus one shard pooling the field devices); {!owned}
    stores per-node mutable state grouped under the owning shard, so
    "which shard may touch this row" is visible in the representation
    rather than implicit in a flat [src*n+dst] array; {!boundary}
    ledgers every frame that crosses shards.

    Execution is sequential — the engine pops one global
    [(time, seq)]-ordered stream — so ownership records which site's
    state an event touches (the per-shard activity breakdown of
    {!Engine.processed_of}), not which domain runs it.

    Determinism: nothing in this module consults an RNG or ambient
    state; all iteration orders are fixed functions of the partition. *)

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

(** [members p shard] is the nodes owned by [shard], ascending. The
    returned array is the partition's own — do not mutate. *)
val members : partition -> int -> int array

(** {1 Shard-owned per-node state}

    A ['a owned] holds one ['a] per node, stored as one row-array per
    shard: [data.(shard).(local_index)]. Reads and writes go through the
    owning shard's row, so the representation shows which site owns
    each row. *)

type 'a owned

(** [init p f] builds per-node state with [f node] for every node. [f]
    is called in shard-major order (shard 0's members ascending, then
    shard 1's, ...); use only effect-free [f] where call order could be
    observed. *)
val init : partition -> (int -> 'a) -> 'a owned

val get : 'a owned -> int -> 'a
val set : 'a owned -> int -> 'a -> unit

(** [row o shard] is the raw row owned by [shard] (members ascending —
    same order as {!members}). Exposed for hot loops that iterate one
    shard's state; treat as owned by that shard. *)
val row : 'a owned -> int -> 'a array

(** [iter f o] applies [f node v] for every node in ascending {e node}
    order (not shard-major), matching iteration over the old flat
    arrays so report orders are unchanged by the refactor. *)
val iter : (int -> 'a -> unit) -> 'a owned -> unit

(** {1 Inter-shard (WAN) boundary ledger} *)

type boundary

type crossing = {
  src_shard : int;
  dst_shard : int;
  frames : int;
  bytes : int;
}

(** [boundary p] is an empty ledger over [p]'s shard pairs. *)
val boundary : partition -> boundary

(** [record b ~src_shard ~dst_shard ~bytes] counts one frame crossing
    the boundary. No-op when [src_shard = dst_shard]. *)
val record : boundary -> src_shard:int -> dst_shard:int -> bytes:int -> unit

(** [crossings b] is every pair with traffic, ordered by
    [(src_shard, dst_shard)]. *)
val crossings : boundary -> crossing list

val total_frames : boundary -> int
val total_bytes : boundary -> int

(** {1 Engine shard mapping}

    By convention the engine reserves its shard tag 0 for control /
    untagged timers; shard [s]'s events are tagged [s + 1]. *)

(** [engine_shard p node] is the engine shard tag for [node]'s
    timers: [1 + owner_of p node]. *)
val engine_shard : partition -> int -> int

(** [engine_shards p] is the shard count an engine needs to attribute
    this partition: [shards p + 1]. *)
val engine_shards : partition -> int
