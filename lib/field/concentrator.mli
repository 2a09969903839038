(** Per-substation data concentrator: the aggregation tier between a
    device fleet and the intrusion-tolerant core.

    A concentrator owns [config.devices] register-mapped devices and
    one link session per device, held as two struct-of-arrays stores
    ({!Device}, {!Session}). Every [scan_interval_us] it runs a scan
    round:

    - steps each session (keep-alive / link-down / relink);
    - ticks each linked device and, only for a device that raised
      report-by-exception events, charges its report frame to the wire
      ledger via [charge] by event count, and folds the report's
      checksum straight from the device store, so the frame itself is
      never built;
    - integrity-polls 1/8th of the devices, charging each Modbus
      exchange its measured length ({!input_poll_bytes},
      {!discrete_poll_bytes}) without encoding it;
    - deduplicates replayed frames on the session sequence watermark;
    - folds the whole round into {e one} compact
      [Scada.Op.Field_report] aggregate submitted through its
      {!Scada.Endpoint} — so a thousand devices cost one ordered
      operation per round, and the endpoint's batch policy further
      packs aggregates into [Client_batch] frames.

    A separate write workload issues [Scada.Op.Field_write] operations;
    the device is actuated (a Modbus [0x10] write on the field link)
    only after the ordered write is confirmed — confirmed-write count
    is therefore an end-to-end metric through the BFT core.

    Determinism: all randomness (device processes, keep-alive loss,
    write workload) derives from [seed] via [Sim.Rng.derive]; timers
    are tagged with [shard], so fleets compose with site-sharded
    parallel runs. *)

type config = {
  devices : int;
  scan_interval_us : int;
  phase_us : int;  (** stagger offset for this concentrator's timers, >= 0 *)
  write_interval_us : int;  (** 0 disables the write workload; >= 0 *)
  keepalive_loss : float;
}

val default_config : config

(** A field-link frame to charge: a capability advertisement, or a
    report frame given by its event count (its wire size,
    [Wire.Envelope.field_report_size], depends on nothing else). *)
type frame = [ `Advert of Scada.Field_frame.advert | `Report of int ]

type t

type stats = {
  device_count : int;
  rounds : int;
  events_seen : int;
  reports_accepted : int;
  dups_dropped : int;
  churn : int;
  adverts_sent : int;
  report_frames : int;
  polls_sent : int;
  poll_bytes : int;  (** local Modbus link bytes (integrity polls, writes) *)
  writes_issued : int;
  confirmed_events : int;
  confirmed_writes : int;
}

(** [create ~engine ~id ~client_id ~first_device ~seed ~group
    ~resubmit_timeout_us ~submit ~charge ~config ()] — [charge]
    receives every field-link frame (adverts and reports) for wire
    accounting; [first_device] is the global id of device 0.
    @raise Invalid_argument naming the field unless [devices > 0],
    [scan_interval_us > 0], [phase_us >= 0], [write_interval_us >= 0]
    and [keepalive_loss] is in [0, 1]. *)
val create :
  ?telemetry:Telemetry.Sink.t ->
  ?batch:Bft.Batch.policy ->
  ?submit_batch:(Bft.Update.t list -> unit) ->
  ?shard:int ->
  engine:Sim.Engine.t ->
  id:int ->
  client_id:Bft.Types.client ->
  first_device:int ->
  seed:int64 ->
  group:Cryptosim.Threshold.group ->
  resubmit_timeout_us:int ->
  submit:(attempt:int -> Bft.Update.t -> unit) ->
  charge:(frame -> unit) ->
  config:config ->
  unit ->
  t

(** [start t] arms the scan and write timers (first round fires at
    [phase_us + scan_interval_us]). *)
val start : t -> unit

val endpoint : t -> Scada.Endpoint.t
val device_count : t -> int
val handle_reply : t -> Scada.Reply.t -> unit

(** [set_on_complete t f] — [f] fires after the concentrator's own
    completion bookkeeping (confirmed-event tally, deferred
    actuation). *)
val set_on_complete : t -> (Bft.Update.t -> latency_us:int -> unit) -> unit

val stats : t -> stats

(** Bytes one integrity poll puts on a device's Modbus link, request
    plus response: a read of all {!Device.input_registers_count} input
    registers, and of all {!Device.discrete_inputs_count} discrete
    inputs. Neither depends on the register contents or the
    transaction id. *)
val input_poll_bytes : int

val discrete_poll_bytes : int
