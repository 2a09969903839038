(** DNP3 wire codec (simplified but structurally faithful).

    Frames carry a link-layer header (start octets [0x05 0x64], length,
    control, destination and source addresses, checksum) followed by an
    application fragment. The application functions cover what a SCADA
    master exchanges with a substation:

    - [Poll_request]: class-0 static read;
    - [Poll_response]: binary-input states plus 32-bit analog inputs;
    - [Operate]: control relay output block (trip/close a point);
    - [Operate_ack]: command confirmation with status.

    The checksum is a 16-bit ones'-complement sum rather than DNP3's
    per-block CRC-16; corruption detection behaves equivalently for the
    simulation's purposes and is exercised by tests. *)

type trip_close = Trip | Close

type app =
  | Poll_request
  | Poll_response of {
      binary_inputs : bool list;
      analog_inputs : int list;  (** signed 32-bit values *)
    }
  | Operate of { point : int; action : trip_close }
  | Operate_ack of { point : int; success : bool }

type frame = { dest : int; src : int; app : app }

(** [encode f] renders the frame as bytes. *)
val encode : frame -> string

(** [decode s] parses and verifies start octets, length and checksum. *)
val decode : string -> (frame, string) result

(** [corrupt s ~at] flips one byte — used by tests to check that the
    checksum rejects damaged frames.
    @raise Invalid_argument if [at] is out of range. *)
val corrupt : string -> at:int -> string
