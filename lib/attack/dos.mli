(** Denial-of-service attack driver against the overlay network.

    Models the network-level attacks the paper's red team exercised:
    sustained junk floods from compromised vantage points, link
    degradation (latency inflation), and outright link kills. Floods
    are generated as periodic junk-frame bursts so the overlay's
    fair-queueing and priority discipline are what decides their
    impact. Every flood frame carries real attacker bytes built by
    {!Wire.Junk} — guaranteed to fail {!Wire.Envelope.decode} at the
    receiving daemon. *)

type t

val create : engine:Sim.Engine.t -> t

(** [flood t ~net ~src ~dst ~frame_bytes ~frames_per_burst ~burst_interval_us]
    starts a periodic junk flood from overlay node [src] towards [dst]
    at [Bulk] priority (a compromised daemon cannot self-assign
    protocol priority — the overlay authenticates class assignment).
    Returns a handle index that can be stopped. *)
val flood :
  t ->
  net:'a Overlay.Net.t ->
  src:Overlay.Topology.node ->
  dst:Overlay.Topology.node ->
  frame_bytes:int ->
  frames_per_burst:int ->
  burst_interval_us:int ->
  int

(** [flood_control_class t ...] same, but the junk claims [Control]
    priority — models a compromised daemon that {e can} mark its own
    traffic; per-source fairness is then the only defence. *)
val flood_control_class :
  t ->
  net:'a Overlay.Net.t ->
  src:Overlay.Topology.node ->
  dst:Overlay.Topology.node ->
  frame_bytes:int ->
  frames_per_burst:int ->
  burst_interval_us:int ->
  int

(** [stop t handle] stops one attack. *)
val stop : t -> int -> unit

(** [active t] counts running attack generators. *)
val active : t -> int
