(** Runtime of the intrusion-tolerant overlay network.

    A ['a Net.t] instantiates a {!Topology} on a simulation engine:
    every node runs an overlay daemon that queues, forwards and delivers
    frames carrying ['a] payloads. Three dissemination modes mirror the
    Spines modes Spire relies on:

    - [Shortest]: latency-weighted single-path unicast (normal routing);
    - [Redundant k]: the frame is sent over up to [k] node-disjoint
      paths, and the destination delivers the first copy — an adversary
      must cut every path to suppress the message;
    - [Flood]: constrained flooding over all usable links, each node
      forwarding only its first copy — delivery is guaranteed whenever
      any correct path exists, at the cost of bandwidth.

    Duplicate suppression is exact: the copies of one submission share
    its seen state, so the destination delivers a redundant or flooded
    frame once however late its other copies arrive (e.g. over a link
    slowed by a delay attack). The overlay keeps no per-node window of
    frame ids.

    Links serialise frames at finite bandwidth through a two-class
    priority queue with round-robin source fairness ({!Fair_queue}), the
    overlay's defence against flooding DoS. Links and nodes can be
    killed, restored, and degraded at runtime; single-path routes are
    recomputed on change. *)

type mode = Shortest | Redundant of int | Flood

type 'a delivery = {
  frame_src : Topology.node;
  frame_dst : Topology.node;
  payload : 'a;
  sent_us : int;  (** virtual time the frame entered the overlay *)
  delivered_us : int;
  hops : int;
      (** overlay hops traversed by the delivered copy (for [Flood], the
          first copy to reach the destination) *)
}

type 'a t

type stats = {
  submitted : int;
  delivered : int;
  duplicates_suppressed : int;
      (** redundant copies dropped by duplicate suppression: in [Flood]
          mode, every copy reaching a node that already has the frame
          (each node forwards only its first copy); in [Redundant k]
          mode, every copy reaching the destination after the first.
          Exact at any delay: no copy is ever forgotten and delivered
          again. Counted at the copy's arrival instant, as is a copy
          lost to a link or node that is down when it arrives, even
          where the copy queued no arrival event (see {!stats}). *)
  dropped_queue_full : int;
  dropped_link_down : int;
  dropped_no_route : int;
  dropped_arq_exhausted : int;
      (** frames lost after all hop-by-hop ARQ retransmission attempts
          failed (sustained loss beyond what per-hop recovery absorbs) *)
  dropped_retired_src : int;
      (** frames whose source id is out of range or belongs to a
          retired (removed-from-membership) node — counted and dropped
          before touching any flattened per-node state *)
  junk_frames : int;
  submitted_bytes : int;  (** payload bytes of submitted frames (junk included) *)
  delivered_bytes : int;  (** bytes of frames delivered to a handler *)
  dropped_bytes : int;
      (** bytes of dropped frame copies, across every drop cause (a
          flooded frame losing one copy counts that copy's bytes) *)
}

(** [create engine topo ()] builds the runtime. [per_source_cap] bounds
    each (source, class) link backlog (default 64 frames). [partition]
    (default {!Sim.Shard.singleton}) assigns each node to an ownership
    shard — typically its geographic site: every frame copy enqueued between
    differently-owned nodes is ledgered as an inter-site (WAN) boundary
    crossing, and hop timers are tagged with the engine shard
    ({!Sim.Shard.engine_shard}) owning the state they mutate — transmit
    and ARQ legs with the transmitting node's, the propagation/arrival
    leg with the receiving node's. The partition never affects
    behaviour — event order, delivery, stats are bit-identical for any
    partition — it makes ownership and WAN coupling explicit.
    @raise Invalid_argument if the partition's node count differs from
    the topology's. *)
val create :
  ?per_source_cap:int ->
  ?partition:Sim.Shard.partition ->
  Sim.Engine.t ->
  Topology.t ->
  unit ->
  'a t

val topology : 'a t -> Topology.t

(** [partition t] is the ownership partition (singleton when none was
    supplied). *)
val partition : 'a t -> Sim.Shard.partition

(** {1 Inter-site (WAN) boundary ledger} *)

(** [wan_frames t] counts the frame copies enqueued onto a link whose
    endpoints are owned by different shards. *)
val wan_frames : 'a t -> int

(** [set_handler t node f] installs the delivery callback for [node];
    replaces any previous handler. *)
val set_handler : 'a t -> Topology.node -> ('a delivery -> unit) -> unit

(** [set_telemetry t sink] makes traced frames (those sent with
    [~trace >= 0]) record per-hop spans into [sink]: fair-queue wait
    ([Net_queue]), link occupancy ([Net_transmit]), ARQ retransmission
    waits ([Net_arq]) and propagation ([Net_propagate]), each labelled
    with the directed link. Defaults to {!Telemetry.Sink.null}; with
    the null sink or untraced frames the per-hop cost is one integer
    compare. *)
val set_telemetry : 'a t -> Telemetry.Sink.t -> unit

(** [send t ~size_bytes ~src ~dst ~mode payload] submits a frame.
    [priority] defaults to [Control]. [size_bytes] is the frame's wire
    length and is {e always} supplied by the caller: protocol traffic
    derives it from the encoded frame ([Wire.Envelope] in the system
    layer), so there is no magic default that would let a summary-matrix
    pre-prepare cost the same as a one-word vote. Self-sends deliver
    immediately (next event). [trace] attaches a telemetry trace context
    to the frame (default [-1] = untraced); see {!set_telemetry}. *)
val send :
  'a t ->
  ?priority:Fair_queue.priority ->
  ?trace:int ->
  size_bytes:int ->
  src:Topology.node ->
  dst:Topology.node ->
  mode:mode ->
  'a ->
  unit

(** [inject_junk_bytes t ~src ~dst ~bytes ~priority] submits an
    attacker frame that consumes link capacity but is never delivered to
    a handler (the receiving daemon's decode-and-authenticate step drops
    it). The junk is the attacker's actual byte string (e.g. from
    [Wire.Junk]); the charged size is [String.length bytes]. *)
val inject_junk_bytes :
  'a t ->
  src:Topology.node ->
  dst:Topology.node ->
  bytes:string ->
  priority:Fair_queue.priority ->
  unit

(** {1 Failure and attack injection} *)

(** [kill_link t a b] marks the undirected link down (frames queued or
    in flight on it are lost); no-op if already down.
    @raise Invalid_argument if no such link. *)
val kill_link : 'a t -> Topology.node -> Topology.node -> unit

val restore_link : 'a t -> Topology.node -> Topology.node -> unit

(** [kill_node t n] takes the daemon down: nothing is delivered to or
    forwarded by [n].
    @raise Invalid_argument ["Net.kill_node: no such node"] if [n] is
    not a node of the topology. *)
val kill_node : 'a t -> Topology.node -> unit

(** @raise Invalid_argument ["Net.restore_node: no such node"] if [n]
    is not a node of the topology. *)
val restore_node : 'a t -> Topology.node -> unit

(** @raise Invalid_argument ["Net.node_alive: no such node"] if [n] is
    not a node of the topology. *)
val node_alive : 'a t -> Topology.node -> bool

(** [retire_node t n] marks [n]'s id inadmissible as a frame source:
    the node's site left the membership, so frames it submits (or that
    are still in flight from it) are counted in [dropped_retired_src]
    and dropped. Orthogonal to liveness — a retired node may still be
    up and babbling on stale state. Out-of-range ids are ignored. *)
val retire_node : 'a t -> Topology.node -> unit

(** [unretire_node t n] re-admits [n] (site re-joined). *)
val unretire_node : 'a t -> Topology.node -> unit

(** [set_latency_factor t a b factor] scales the link's propagation
    delay (e.g. 10x under congestion attack).
    @raise Invalid_argument if [factor] is not finite, is below 1, or
    scales the link's latency to [max_int] microseconds or more. *)
val set_latency_factor : 'a t -> Topology.node -> Topology.node -> float -> unit

(** [invalidate_routes t] clears every cached shortest path and
    k-disjoint path set, forcing recomputation on next use. Called
    internally after every topology mutation ([kill_link],
    [restore_node], ...); exposed so callers that change the
    {e dissemination mode} of future sends (the runtime tuning plane)
    can drop routes computed for the previous mode. Recomputation is a
    pure function of the unchanged topology, so invalidation alone
    never changes the trajectory; frames already in flight keep the
    route captured at submit time. *)
val invalidate_routes : 'a t -> unit

(** [set_loss_probability t a b p] makes each transmission over the
    link drop with probability [p]. Hop-by-hop ARQ retransmits lost
    frames (up to 8 attempts), converting loss into latency — the
    overlay daemons' per-hop recovery.
    @raise Invalid_argument unless 0 <= p < 1 (NaN included). *)
val set_loss_probability : 'a t -> Topology.node -> Topology.node -> float -> unit

(** [retransmissions t] counts ARQ retransmissions performed so far. *)
val retransmissions : 'a t -> int

(** {1 Per-link byte accounting} *)

type link_report = {
  link_src : Topology.node;
  link_dst : Topology.node;  (** directed: frames serialised src -> dst *)
  tx_bytes : int;  (** bytes transmitted, retransmissions included *)
  tx_busy_us : int;  (** virtual time the link spent serialising *)
}

(** [link_reports t] lists every directed link that transmitted at least
    one frame, descending by [tx_bytes]. *)
val link_reports : 'a t -> link_report list

(** {1 Introspection} *)

(** [stats t] is the counters at this point of the run. A flooded copy
    sent to a node that already holds the frame, untraced, queues no
    arrival event: its link records the engine place the event would
    have taken ({!Sim.Engine.reserve}), and the copy is counted, as a
    duplicate or as a link-down drop by the liveness at that place,
    once the run has passed it. [stats] settles every such copy the run
    has passed first, as does every {!kill_link}, {!restore_link},
    {!kill_node} and {!restore_node} before it changes liveness, so the
    counters read the same as if each copy had been an event. *)
val stats : 'a t -> stats
