(** The register-mapped field devices of one concentrator (the fleet's
    RTU model), as one struct-of-arrays store.

    Each device has the four Modbus register tables of a cc-mek-scada
    RTU — discrete inputs, coils, input registers, holding registers —
    described by typed {!Point} descriptors. Each table is one flat
    buffer indexed [device * width + address], beside the analog point
    parameters and last reported values; no {!Point.t} and no map
    digest is kept. Device [d] has id [first_device + d].

    Input registers follow a deterministic bounded random walk drawn
    from stream [d] of one {!Sim.Rng.Bank}, and report by exception
    when they drift a deadband from their last reported value;
    discrete inputs flip rarely. {!tick} allocates nothing: it writes
    its events into a buffer the store reuses.

    {!serve} is the slave side of a Modbus exchange against the tables,
    covering all eight function codes of {!Scada.Modbus} and answering
    out-of-range accesses with exception code 2. *)

type t

val discrete_inputs_count : int
val coils_count : int
val input_registers_count : int
val holding_registers_count : int

(** [create ~first_device ~count ~seed] builds [count]
    devices; device [d]'s register-map parameters (nominals, spreads,
    deadbands) and process noise are a pure function of [seed d]. It
    writes the parameters straight into the store, allocating no
    per-device value on the minor heap. *)
val create : first_device:int -> count:int -> seed:(int -> int64) -> t

val count : t -> int
val id : t -> int -> int

(** [input_point t d ~address] is the descriptor of device [d]'s input
    register [address], rebuilt from the stored parameters: its nominal,
    and [hi - nominal] as its spread (a drawn envelope never reaches
    0xFFFF, so [hi] is never clipped).
    @raise Invalid_argument unless [0 <= d < count t] and [address] is
    an input register. *)
val input_point : t -> int -> address:int -> Point.t

(** [map_digest t d] is {!Point.map_digest} over device [d]'s point
    descriptors (discrete inputs, coils, input registers, holding
    registers), the register-map identity of its capability
    advertisement. It is derived on demand from {!input_point}, since no
    run reads it.
    @raise Invalid_argument unless [0 <= d < count t]. *)
val map_digest : t -> int -> Cryptosim.Digest.t

(** [tick t d] advances device [d] one scan interval and returns how
    many exception events it raised; {!events} lists them, oldest
    first, until the next tick of any device. *)
val tick : t -> int -> int

val events : t -> Scada.Field_frame.event list

(** [report_checksum t d] is [Scada.Field_frame.report_checksum] of a
    report from device [d] carrying {!events}, computed from the
    store's event buffer without building the report; it allocates
    nothing. *)
val report_checksum : t -> int -> int

(** [serve t d req] answers a Modbus request from device [d]'s tables. *)
val serve : t -> int -> Scada.Modbus.request -> Scada.Modbus.response

val holding_register : t -> int -> address:int -> int option
