type trip_close = Trip | Close

type app =
  | Poll_request
  | Poll_response of { binary_inputs : bool list; analog_inputs : int list }
  | Operate of { point : int; action : trip_close }
  | Operate_ack of { point : int; success : bool }

type frame = { dest : int; src : int; app : app }

let start0 = 0x05
let start1 = 0x64

let checksum s =
  let sum = ref 0 in
  String.iter (fun c -> sum := (!sum + Char.code c) land 0xFFFF) s;
  lnot !sum land 0xFFFF

let encode_app = function
  | Poll_request ->
    let b = Buffer.create 1 in
    Buffer.add_uint8 b 0x01;
    Buffer.contents b
  | Poll_response { binary_inputs; analog_inputs } ->
    let b = Buffer.create 16 in
    Buffer.add_uint8 b 0x81;
    Buffer.add_uint8 b (List.length binary_inputs);
    List.iter (fun bit -> Buffer.add_uint8 b (if bit then 1 else 0)) binary_inputs;
    Buffer.add_uint8 b (List.length analog_inputs);
    List.iter (fun v -> Buffer.add_int32_be b (Int32.of_int v)) analog_inputs;
    Buffer.contents b
  | Operate { point; action } ->
    let b = Buffer.create 4 in
    Buffer.add_uint8 b 0x04;
    Buffer.add_uint16_be b point;
    Buffer.add_uint8 b (match action with Trip -> 0x01 | Close -> 0x41);
    Buffer.contents b
  | Operate_ack { point; success } ->
    let b = Buffer.create 4 in
    Buffer.add_uint8 b 0x84;
    Buffer.add_uint16_be b point;
    Buffer.add_uint8 b (if success then 0x00 else 0x04);
    Buffer.contents b

let encode f =
  let app = encode_app f.app in
  let body = Buffer.create (8 + String.length app) in
  Buffer.add_uint8 body 0xC4 (* link control: primary, user data *);
  Buffer.add_uint16_be body f.dest;
  Buffer.add_uint16_be body f.src;
  Buffer.add_string body app;
  let body = Buffer.contents body in
  let b = Buffer.create (4 + String.length body + 2) in
  Buffer.add_uint8 b start0;
  Buffer.add_uint8 b start1;
  Buffer.add_uint16_be b (String.length body);
  Buffer.add_string b body;
  Buffer.add_uint16_be b (checksum body);
  Buffer.contents b

let get_u8 s pos = Char.code s.[pos]
let get_u16 s pos = (get_u8 s pos lsl 8) lor get_u8 s (pos + 1)

let get_i32 s pos =
  let v =
    Int32.logor
      (Int32.shift_left (Int32.of_int (get_u16 s pos)) 16)
      (Int32.of_int (get_u16 s (pos + 2)))
  in
  Int32.to_int v

let decode_app s =
  if String.length s < 1 then Error "empty application fragment"
  else
    match get_u8 s 0 with
    | 0x01 when String.length s = 1 -> Ok Poll_request
    | 0x81 ->
      if String.length s < 2 then Error "truncated poll response"
      else begin
        let nbin = get_u8 s 1 in
        if String.length s < 2 + nbin + 1 then Error "truncated binaries"
        else begin
          let binary_inputs = List.init nbin (fun i -> get_u8 s (2 + i) <> 0) in
          let nana_pos = 2 + nbin in
          let nana = get_u8 s nana_pos in
          if String.length s <> nana_pos + 1 + (4 * nana) then
            Error "truncated analogs"
          else
            Ok
              (Poll_response
                 {
                   binary_inputs;
                   analog_inputs =
                     List.init nana (fun i -> get_i32 s (nana_pos + 1 + (4 * i)));
                 })
        end
      end
    | 0x04 when String.length s = 4 -> (
      match get_u8 s 3 with
      | 0x01 -> Ok (Operate { point = get_u16 s 1; action = Trip })
      | 0x41 -> Ok (Operate { point = get_u16 s 1; action = Close })
      | _ -> Error "bad control code")
    | 0x84 when String.length s = 4 ->
      Ok (Operate_ack { point = get_u16 s 1; success = get_u8 s 3 = 0x00 })
    | code -> Error (Printf.sprintf "unknown function 0x%02x" code)

let decode s =
  if String.length s < 6 then Error "frame too short"
  else if get_u8 s 0 <> start0 || get_u8 s 1 <> start1 then Error "bad start octets"
  else begin
    let len = get_u16 s 2 in
    if String.length s <> 4 + len + 2 then Error "length mismatch"
    else begin
      let body = String.sub s 4 len in
      let expected = get_u16 s (4 + len) in
      if checksum body <> expected then Error "checksum mismatch"
      else if len < 5 then Error "body too short"
      else begin
        let dest = get_u16 body 1 and src = get_u16 body 3 in
        Result.map
          (fun app -> { dest; src; app })
          (decode_app (String.sub body 5 (len - 5)))
      end
    end
  end

let corrupt s ~at =
  if at < 0 || at >= String.length s then invalid_arg "Dnp3.corrupt: out of range";
  let b = Bytes.of_string s in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xFF));
  Bytes.to_string b
