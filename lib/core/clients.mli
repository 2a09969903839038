(** The client plane: substation proxies polling their RTUs, HMIs, and
    the field-fleet concentrators, each an ordinary BFT client on its
    own overlay node [universe + client id]. Client ids number the
    proxies first, then the HMIs, then the concentrators. The plane
    owns their origin failover, the end-to-end latency histogram and
    series, and the submitted-update count. *)

type t

(** [create ...] builds every client and installs its reply handler.
    [devices] split evenly (remainder to the low-numbered
    concentrators) across [concentrators]; [shard] tags every client
    timer. Clients follow [epochs]' current membership and take each
    new epoch's threshold group. *)
val create :
  engine:Sim.Engine.t ->
  net:Wire.Message.t Overlay.Net.t ->
  send:Send.t ->
  epochs:Epochs.t ->
  telemetry:Telemetry.Sink.t ->
  group:Cryptosim.Threshold.group ->
  batch:Bft.Batch.policy ->
  shard:int ->
  universe:int ->
  seed:int64 ->
  substations:int ->
  hmis:int ->
  concentrators:int ->
  devices:int ->
  scan_interval_us:int ->
  loss:float ->
  poll_interval_us:int ->
  resubmit_timeout_us:int ->
  t

(** [start t] arms every proxy, HMI and concentrator. *)
val start : t -> unit

val proxy : t -> int -> Scada.Proxy.t
val hmi : t -> int -> Scada.Hmi.t
val hmi_count : t -> int
val concentrator : t -> int -> Field.Concentrator.t
val concentrator_count : t -> int
val fleet_stats : t -> Field.Concentrator.stats
val latency_histogram : t -> Stats.Histogram.t
val latency_series : t -> Stats.Timeseries.t
val submitted : t -> int
