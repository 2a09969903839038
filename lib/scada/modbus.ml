type request =
  | Read_coils of { start : int; count : int }
  | Read_discrete_inputs of { start : int; count : int }
  | Read_holding_registers of { start : int; count : int }
  | Read_input_registers of { start : int; count : int }
  | Write_single_coil of { address : int; value : bool }
  | Write_single_register of { address : int; value : int }
  | Write_multiple_coils of { start : int; values : bool list }
  | Write_multiple_registers of { start : int; values : int list }

type response =
  | Coils of bool list
  | Discrete_inputs of bool list
  | Holding_registers of int list
  | Input_registers of int list
  | Coil_written of { address : int; value : bool }
  | Register_written of { address : int; value : int }
  | Coils_written of { start : int; count : int }
  | Registers_written of { start : int; count : int }
  | Exception_response of { function_code : int; exception_code : int }

type 'a frame = { transaction : int; unit_id : int; body : 'a }

let protocol_id = 0

let check_u16 name v =
  if v < 0 || v > 0xFFFF then invalid_arg (Printf.sprintf "Modbus: %s out of u16 range" name)

(* PDU builders ------------------------------------------------------- *)

let read_request_pdu fc ~start ~count =
  check_u16 "start" start;
  check_u16 "count" count;
  let b = Buffer.create 5 in
  Buffer.add_uint8 b fc;
  Buffer.add_uint16_be b start;
  Buffer.add_uint16_be b count;
  Buffer.contents b

let add_packed_bits b bits =
  let byte_count = (List.length bits + 7) / 8 in
  Buffer.add_uint8 b byte_count;
  let bytes = Array.make byte_count 0 in
  List.iteri
    (fun i bit -> if bit then bytes.(i / 8) <- bytes.(i / 8) lor (1 lsl (i mod 8)))
    bits;
  Array.iter (Buffer.add_uint8 b) bytes

let function_code = function
  | Read_coils _ -> 0x01
  | Read_discrete_inputs _ -> 0x02
  | Read_holding_registers _ -> 0x03
  | Read_input_registers _ -> 0x04
  | Write_single_coil _ -> 0x05
  | Write_single_register _ -> 0x06
  | Write_multiple_coils _ -> 0x0F
  | Write_multiple_registers _ -> 0x10

let pdu_of_request req =
  let fc = function_code req in
  match req with
  | Read_coils { start; count }
  | Read_discrete_inputs { start; count }
  | Read_holding_registers { start; count }
  | Read_input_registers { start; count } ->
    read_request_pdu fc ~start ~count
  | Write_multiple_coils { start; values } ->
    check_u16 "start" start;
    (* byte count is a u8, which bounds a write to 0x7B0 coils in real
       Modbus; we enforce the same ceiling *)
    if List.length values > 0x7B0 then
      invalid_arg "Modbus: too many coils in one write";
    let b = Buffer.create (6 + ((List.length values + 7) / 8)) in
    Buffer.add_uint8 b fc;
    Buffer.add_uint16_be b start;
    Buffer.add_uint16_be b (List.length values);
    add_packed_bits b values;
    Buffer.contents b
  | Write_multiple_registers { start; values } ->
    check_u16 "start" start;
    (* byte count is a u8: at most 123 registers per write, as in real
       Modbus *)
    if List.length values > 123 then
      invalid_arg "Modbus: too many registers in one write";
    List.iter (check_u16 "register") values;
    let b = Buffer.create (6 + (2 * List.length values)) in
    Buffer.add_uint8 b fc;
    Buffer.add_uint16_be b start;
    Buffer.add_uint16_be b (List.length values);
    Buffer.add_uint8 b (2 * List.length values);
    List.iter (Buffer.add_uint16_be b) values;
    Buffer.contents b
  | Write_single_coil { address; value } ->
    check_u16 "address" address;
    let b = Buffer.create 5 in
    Buffer.add_uint8 b fc;
    Buffer.add_uint16_be b address;
    Buffer.add_uint16_be b (if value then 0xFF00 else 0x0000);
    Buffer.contents b
  | Write_single_register { address; value } ->
    check_u16 "address" address;
    check_u16 "value" value;
    let b = Buffer.create 5 in
    Buffer.add_uint8 b fc;
    Buffer.add_uint16_be b address;
    Buffer.add_uint16_be b value;
    Buffer.contents b

(* Trailing bit count so the decoder can recover the exact list length
   (Modbus proper relies on the request's count; we make the frame
   self-describing). *)
let bit_response_pdu fc bits =
  let b = Buffer.create (3 + ((List.length bits + 7) / 8)) in
  Buffer.add_uint8 b fc;
  add_packed_bits b bits;
  Buffer.add_uint8 b (List.length bits land 0xFF);
  Buffer.contents b

let register_response_pdu fc regs =
  List.iter (check_u16 "register") regs;
  let b = Buffer.create (2 + (2 * List.length regs)) in
  Buffer.add_uint8 b fc;
  Buffer.add_uint8 b (2 * List.length regs);
  List.iter (Buffer.add_uint16_be b) regs;
  Buffer.contents b

let write_echo_pdu fc ~start ~count =
  check_u16 "start" start;
  check_u16 "count" count;
  let b = Buffer.create 5 in
  Buffer.add_uint8 b fc;
  Buffer.add_uint16_be b start;
  Buffer.add_uint16_be b count;
  Buffer.contents b

let pdu_of_response = function
  | Coils bits -> bit_response_pdu 0x01 bits
  | Discrete_inputs bits -> bit_response_pdu 0x02 bits
  | Holding_registers regs -> register_response_pdu 0x03 regs
  | Input_registers regs -> register_response_pdu 0x04 regs
  | Coils_written { start; count } -> write_echo_pdu 0x0F ~start ~count
  | Registers_written { start; count } -> write_echo_pdu 0x10 ~start ~count
  | Coil_written { address; value } ->
    check_u16 "address" address;
    let b = Buffer.create 5 in
    Buffer.add_uint8 b 0x05;
    Buffer.add_uint16_be b address;
    Buffer.add_uint16_be b (if value then 0xFF00 else 0x0000);
    Buffer.contents b
  | Register_written { address; value } ->
    check_u16 "address" address;
    check_u16 "value" value;
    let b = Buffer.create 5 in
    Buffer.add_uint8 b 0x06;
    Buffer.add_uint16_be b address;
    Buffer.add_uint16_be b value;
    Buffer.contents b
  | Exception_response { function_code; exception_code } ->
    let b = Buffer.create 2 in
    Buffer.add_uint8 b (function_code lor 0x80);
    Buffer.add_uint8 b exception_code;
    Buffer.contents b

let encode_adu frame pdu =
  check_u16 "transaction" frame.transaction;
  let b = Buffer.create (7 + String.length pdu) in
  Buffer.add_uint16_be b frame.transaction;
  Buffer.add_uint16_be b protocol_id;
  Buffer.add_uint16_be b (String.length pdu + 1);
  Buffer.add_uint8 b frame.unit_id;
  Buffer.add_string b pdu;
  Buffer.contents b

let encode_request f = encode_adu f (pdu_of_request f.body)
let encode_response f = encode_adu f (pdu_of_response f.body)

(* Decoding ----------------------------------------------------------- *)

let get_u8 s pos = Char.code s.[pos]
let get_u16 s pos = (get_u8 s pos lsl 8) lor get_u8 s (pos + 1)

let decode_header s =
  if String.length s < 8 then Error "frame too short for MBAP header"
  else begin
    let transaction = get_u16 s 0 in
    let proto = get_u16 s 2 in
    let length = get_u16 s 4 in
    let unit_id = get_u8 s 6 in
    if proto <> protocol_id then Error "bad protocol id"
    else if String.length s <> 6 + length then Error "length field mismatch"
    else Ok (transaction, unit_id, String.sub s 7 (length - 1))
  end

let decode_request s =
  Result.bind (decode_header s) (fun (transaction, unit_id, pdu) ->
      if String.length pdu < 1 then Error "empty PDU"
      else
        let packed_bits ~pos ~count =
          List.init count (fun i ->
              get_u8 pdu (pos + (i / 8)) land (1 lsl (i mod 8)) <> 0)
        in
        let body =
          match get_u8 pdu 0 with
          | 0x01 when String.length pdu = 5 ->
            Ok (Read_coils { start = get_u16 pdu 1; count = get_u16 pdu 3 })
          | 0x02 when String.length pdu = 5 ->
            Ok
              (Read_discrete_inputs
                 { start = get_u16 pdu 1; count = get_u16 pdu 3 })
          | 0x03 when String.length pdu = 5 ->
            Ok
              (Read_holding_registers
                 { start = get_u16 pdu 1; count = get_u16 pdu 3 })
          | 0x04 when String.length pdu = 5 ->
            Ok
              (Read_input_registers
                 { start = get_u16 pdu 1; count = get_u16 pdu 3 })
          | 0x0F when String.length pdu >= 6 ->
            let count = get_u16 pdu 3 in
            let byte_count = get_u8 pdu 5 in
            if byte_count <> (count + 7) / 8 then Error "coil write byte count"
            else if String.length pdu <> 6 + byte_count then
              Error "coil write length"
            else
              Ok
                (Write_multiple_coils
                   { start = get_u16 pdu 1; values = packed_bits ~pos:6 ~count })
          | 0x10 when String.length pdu >= 6 ->
            let count = get_u16 pdu 3 in
            let byte_count = get_u8 pdu 5 in
            if byte_count <> 2 * count then Error "register write byte count"
            else if String.length pdu <> 6 + byte_count then
              Error "register write length"
            else
              Ok
                (Write_multiple_registers
                   {
                     start = get_u16 pdu 1;
                     values = List.init count (fun i -> get_u16 pdu (6 + (2 * i)));
                   })
          | 0x05 when String.length pdu = 5 ->
            let raw = get_u16 pdu 3 in
            if raw <> 0xFF00 && raw <> 0x0000 then Error "bad coil value"
            else
              Ok
                (Write_single_coil
                   { address = get_u16 pdu 1; value = raw = 0xFF00 })
          | 0x06 when String.length pdu = 5 ->
            Ok
              (Write_single_register
                 { address = get_u16 pdu 1; value = get_u16 pdu 3 })
          | code -> Error (Printf.sprintf "unsupported function 0x%02x" code)
        in
        Result.map (fun body -> { transaction; unit_id; body }) body)

let decode_response s =
  Result.bind (decode_header s) (fun (transaction, unit_id, pdu) ->
      if String.length pdu < 2 then Error "PDU too short"
      else
        let bits_body mk =
          let byte_count = get_u8 pdu 1 in
          if String.length pdu <> 3 + byte_count then Error "coil length"
          else begin
            let bit_count_field = get_u8 pdu (2 + byte_count) in
            let max_bits = 8 * byte_count in
            let bit_count =
              if bit_count_field = 0 && max_bits > 0 then max_bits
              else if
                bit_count_field > max_bits || max_bits - bit_count_field >= 8
              then -1
              else bit_count_field
            in
            if bit_count < 0 then Error "coil bit count"
            else
              Ok
                (mk
                   (List.init bit_count (fun i ->
                        get_u8 pdu (2 + (i / 8)) land (1 lsl (i mod 8)) <> 0)))
          end
        in
        let registers_body mk =
          let byte_count = get_u8 pdu 1 in
          if byte_count mod 2 <> 0 || String.length pdu <> 2 + byte_count then
            Error "register length"
          else
            Ok
              (mk (List.init (byte_count / 2) (fun i -> get_u16 pdu (2 + (2 * i)))))
        in
        let body =
          match get_u8 pdu 0 with
          | 0x01 -> bits_body (fun bits -> Coils bits)
          | 0x02 -> bits_body (fun bits -> Discrete_inputs bits)
          | 0x03 -> registers_body (fun regs -> Holding_registers regs)
          | 0x04 -> registers_body (fun regs -> Input_registers regs)
          | 0x0F when String.length pdu = 5 ->
            Ok (Coils_written { start = get_u16 pdu 1; count = get_u16 pdu 3 })
          | 0x10 when String.length pdu = 5 ->
            Ok
              (Registers_written { start = get_u16 pdu 1; count = get_u16 pdu 3 })
          | 0x05 when String.length pdu = 5 ->
            Ok
              (Coil_written
                 { address = get_u16 pdu 1; value = get_u16 pdu 3 = 0xFF00 })
          | 0x06 when String.length pdu = 5 ->
            Ok
              (Register_written { address = get_u16 pdu 1; value = get_u16 pdu 3 })
          | code when code land 0x80 <> 0 && String.length pdu = 2 ->
            Ok
              (Exception_response
                 { function_code = code land 0x7F; exception_code = get_u8 pdu 1 })
          | code -> Error (Printf.sprintf "unsupported function 0x%02x" code)
        in
        Result.map (fun body -> { transaction; unit_id; body }) body)

let pp_request ppf = function
  | Read_coils { start; count } -> Format.fprintf ppf "ReadCoils(%d,%d)" start count
  | Read_discrete_inputs { start; count } ->
    Format.fprintf ppf "ReadDiscretes(%d,%d)" start count
  | Read_holding_registers { start; count } ->
    Format.fprintf ppf "ReadHolding(%d,%d)" start count
  | Read_input_registers { start; count } ->
    Format.fprintf ppf "ReadInput(%d,%d)" start count
  | Write_single_coil { address; value } ->
    Format.fprintf ppf "WriteCoil(%d,%b)" address value
  | Write_single_register { address; value } ->
    Format.fprintf ppf "WriteReg(%d,%d)" address value
  | Write_multiple_coils { start; values } ->
    Format.fprintf ppf "WriteCoils(%d,%d bits)" start (List.length values)
  | Write_multiple_registers { start; values } ->
    Format.fprintf ppf "WriteRegs(%d,%d)" start (List.length values)
