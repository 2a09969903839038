(** Field-link frame payloads shared by the wire codec and the device
    fleet (lib/field).

    Two frames travel the last-mile link between a register-mapped
    device and its concentrator:

    - an {!advert}: the capability advertisement a device sends when
      its session links up (and again on every relink), describing its
      register map — per-table point counts plus a digest over the
      typed point descriptors;
    - a {!report}: a report-by-exception batch — the deadband
      exceptions and discrete flips since the last report, stamped with
      a per-session sequence number so the concentrator can deduplicate
      relink replays.

    The payload types live here (not in lib/field) so [Wire.Message]
    can carry them without the wire library depending on the fleet. *)

type table = Discrete_input | Coil | Input_register | Holding_register

val table_to_int : table -> int
val table_of_int : int -> table option
val table_name : table -> string

type advert = {
  concentrator : int;
  device : int;
  discrete_inputs : int;
  coils : int;
  input_registers : int;
  holding_registers : int;
  map_digest : Cryptosim.Digest.t;
}

type event = { table : table; address : int; value : int }

type report = {
  concentrator : int;
  device : int;
  seq : int;  (** per-session sequence number, increments per report *)
  events : event list;
}

(** [report_checksum r] folds the report's events into a 30-bit
    checksum. Concentrators chain these into the aggregate operations
    they submit for ordering, so every replica applies a value that
    commits to the underlying field data. *)
val report_checksum : report -> int

val event_checksum : int -> event -> int

(** [fold_event acc table ~address ~value] =
    [event_checksum acc { table; address; value }], without building
    the event. *)
val fold_event : int -> table -> address:int -> value:int -> int

val pp_advert : Format.formatter -> advert -> unit
val pp_report : Format.formatter -> report -> unit
val equal_advert : advert -> advert -> bool
