(** Substation proxy: the field-side gateway between an RTU and the
    replicated SCADA master.

    Every poll interval the proxy advances the device's physical
    process, performs a full DNP3 poll round-trip against the RTU
    (encode request → decode at the device → encode response → decode
    at the proxy — byte-level, so the codecs are on the hot path, as in
    Spire), wraps the status into an ordered update, and submits it to
    the replicated master. Confirmations arrive as threshold-signed
    replies via the shared {!Endpoint} machinery.

    Supervisory commands flow the other way: replicas that execute a
    breaker/tap command send the proxy a threshold-signed DNP3 frame;
    on the first valid combination the proxy actuates the RTU. *)

type t

(** Which field protocol the proxy speaks to its RTU. [`Dnp3] polls
    with one class-0 read; [`Modbus] polls with two exchanges (read
    coils + read holding registers over a 32-bit register map) and
    translates supervisory DNP3 command frames from the masters into
    Modbus writes — the proxy is a protocol gateway, as in the real
    system. *)
type field_protocol = [ `Dnp3 | `Modbus ]

(** [telemetry] (default {!Telemetry.Sink.null}) traces the lifecycle
    of every update this proxy submits. [batch]/[submit_batch] are
    forwarded to the underlying {!Endpoint}: status polls accumulate
    under the size/deadline policy and flush as one client batch.
    [shard] (default 0) tags the proxy's poll and endpoint timers with
    the owning engine shard ({!Sim.Shard}). *)
val create :
  ?field_protocol:field_protocol ->
  ?telemetry:Telemetry.Sink.t ->
  ?batch:Bft.Batch.policy ->
  ?submit_batch:(Bft.Update.t list -> unit) ->
  ?shard:int ->
  engine:Sim.Engine.t ->
  rtu:Rtu.t ->
  client_id:Bft.Types.client ->
  poll_interval_us:int ->
  group:Cryptosim.Threshold.group ->
  resubmit_timeout_us:int ->
  submit:(attempt:int -> Bft.Update.t -> unit) ->
  unit ->
  t

val field_protocol : t -> field_protocol

(** [start t] begins the polling loop and retransmission watchdog. *)
val start : t -> unit

(** [stop t] halts polling (e.g. substation disconnected in a
    scenario). *)
val stop : t -> unit

(** [handle_reply t reply] ingests a replica reply; commands embedded in
    a confirmed reply are actuated on the RTU exactly once. *)
val handle_reply : t -> Reply.t -> unit

(** [endpoint t] exposes the underlying endpoint (latency callback,
    counters). *)
val endpoint : t -> Endpoint.t

val rtu : t -> Rtu.t

(** [polls_sent t] counts status updates submitted so far. *)
val polls_sent : t -> int

(** [commands_applied t] counts device commands actuated. *)
val commands_applied : t -> int
