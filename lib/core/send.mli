(** The deployment's send path. Every frame a system puts on the
    overlay goes through {!payload}: it is charged its exact wire size
    in a per-kind ledger, tagged with the trace context of the update it
    carries, and routed with the live dissemination mode. Field-link
    frames, which never ride the overlay, are charged to the same
    ledger. *)

type t

(** [create net ~telemetry ~mode ~wire_debug] sends over [net] with
    initial dissemination [mode]; [wire_debug] turns on
    decode-on-delivery ({!check_delivery}). *)
val create :
  Wire.Message.t Overlay.Net.t ->
  telemetry:Telemetry.Sink.t ->
  mode:Overlay.Net.mode ->
  wire_debug:bool ->
  t

(** [trace_of_update u] is the trace id of [u]'s lifecycle. *)
val trace_of_update : Bft.Update.t -> int

(** [payload t ~src_node ~dst_node p] charges and sends one frame. *)
val payload : t -> src_node:int -> dst_node:int -> Wire.Message.t -> unit

(** [charge_field_frame t frame] charges a device-link frame without
    building or sending it (its size does not depend on the sender). *)
val charge_field_frame : t -> Field.Concentrator.frame -> unit

(** [check_delivery t ~sender p] round-trips a delivered payload
    through the wire codecs when [wire_debug] is set, counting
    mismatches in {!decode_errors}. *)
val check_delivery : t -> sender:int -> Wire.Message.t -> unit

(** [mode t] is the dissemination mode future sends use; [set_mode]
    swaps it and drops the routes cached for the old mode. *)
val mode : t -> Overlay.Net.mode

val set_mode : t -> Overlay.Net.mode -> unit

(** [traffic t] — per-kind [(kind, frames, bytes)], descending by
    bytes. *)
val traffic : t -> (string * int * int) list

val decode_errors : t -> int
