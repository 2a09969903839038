(** Modbus/TCP wire codec (the subset Spire's proxies and the field
    fleet use).

    Byte-accurate encoding of the MBAP header and the PDU function
    codes needed to poll a register-mapped device and operate it:
    - [0x01] Read Coils (breaker states)
    - [0x02] Read Discrete Inputs (status bits)
    - [0x03] Read Holding Registers (analog measurements)
    - [0x04] Read Input Registers (sensor values)
    - [0x05] Write Single Coil (breaker open/close)
    - [0x06] Write Single Register (transformer tap)
    - [0x0F] Write Multiple Coils
    - [0x10] Write Multiple Registers

    Responses mirror requests; exception responses carry
    [function | 0x80] and an exception code. All multi-byte fields are
    big-endian per the Modbus specification. *)

type request =
  | Read_coils of { start : int; count : int }
  | Read_discrete_inputs of { start : int; count : int }
  | Read_holding_registers of { start : int; count : int }
  | Read_input_registers of { start : int; count : int }
  | Write_single_coil of { address : int; value : bool }
  | Write_single_register of { address : int; value : int }
  | Write_multiple_coils of { start : int; values : bool list }
      (** at most 0x7B0 coils per write (byte count is a u8) *)
  | Write_multiple_registers of { start : int; values : int list }
      (** at most 123 registers per write (byte count is a u8) *)

type response =
  | Coils of bool list
  | Discrete_inputs of bool list
  | Holding_registers of int list  (** 16-bit unsigned values *)
  | Input_registers of int list  (** 16-bit unsigned values *)
  | Coil_written of { address : int; value : bool }
  | Register_written of { address : int; value : int }
  | Coils_written of { start : int; count : int }  (** echo of a 0x0F write *)
  | Registers_written of { start : int; count : int }
      (** echo of a 0x10 write *)
  | Exception_response of { function_code : int; exception_code : int }

type 'a frame = { transaction : int; unit_id : int; body : 'a }

(** [function_code req] is the Modbus function code of [req]
    ([0x01]..[0x06], [0x0F], [0x10]). *)
val function_code : request -> int

(** [encode_request f] renders an ADU (MBAP header + PDU) as bytes. *)
val encode_request : request frame -> string

(** [decode_request s] parses bytes back; [Error _] describes the first
    malformation found. *)
val decode_request : string -> (request frame, string) result

val encode_response : response frame -> string
val decode_response : string -> (response frame, string) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
