type field_protocol = [ `Dnp3 | `Modbus ]

type t = {
  engine : Sim.Engine.t;
  rtu : Rtu.t;
  endpoint : Endpoint.t;
  groups : Cryptosim.Threshold.group list;  (* the [group] given to [create] *)
  protocol : field_protocol;
  poll_interval_us : int;
  mutable polls_sent : int;
  mutable commands_applied : int;
  mutable running : bool;
  (* Device commands are confirmed independently of the endpoint's own
     pending updates: they carry the ISSUING client's update key (an
     HMI), not ours. One collector per update key, every claimed digest
     inside it, dropped whole on actuation. *)
  command_shares : Shares.t Bft.Tbl.Pair.t;
  actuated : (Bft.Types.client * int, unit) Hashtbl.t;
  (* Modbus transaction counter. Per-proxy, not module-level: a
     toplevel ref would be mutable state shared by every system
     instance in the process — racy across domains in a parallel
     sweep and an ordering leak between otherwise independent runs. *)
  mutable next_txn : int;
  shard : int; (* engine shard owning this proxy's timers *)
}

let create ?(field_protocol = `Dnp3) ?telemetry ?batch ?submit_batch ?(shard = 0)
    ~engine ~rtu ~client_id ~poll_interval_us ~group ~resubmit_timeout_us
    ~submit () =
  {
    engine;
    rtu;
    endpoint =
      Endpoint.create ?telemetry ?batch ?submit_batch ~shard ~engine ~client_id
        ~group ~resubmit_timeout_us ~submit ();
    groups = [ group ];
    protocol = field_protocol;
    poll_interval_us;
    polls_sent = 0;
    commands_applied = 0;
    running = false;
    command_shares = Bft.Tbl.Pair.create 17;
    actuated = Hashtbl.create 17;
    next_txn = 0;
    shard;
  }

let endpoint t = t.endpoint
let field_protocol t = t.protocol
let rtu t = t.rtu
let polls_sent t = t.polls_sent
let commands_applied t = t.commands_applied

(* The device side of a DNP3 exchange: answer a poll from live RTU
   state. Analog layout: [seq; frequency; tap; voltages...; currents...]. *)
let device_respond rtu (app : Dnp3.app) : Dnp3.app =
  match app with
  | Dnp3.Poll_request ->
    let s = Rtu.read_status rtu in
    Dnp3.Poll_response
      {
        binary_inputs =
          Array.to_list
            (Array.map (fun b -> b = Rtu.Closed) s.Rtu.breakers);
        analog_inputs =
          (s.Rtu.seq :: s.Rtu.frequency_mhz :: s.Rtu.tap_position
           :: Array.to_list s.Rtu.voltages_mv)
          @ Array.to_list s.Rtu.currents_ma;
      }
  | Dnp3.Operate { point; action } when point < Rtu.breaker_count rtu ->
    Rtu.operate_breaker rtu ~index:point
      ~desired:(match action with Dnp3.Trip -> Rtu.Open | Dnp3.Close -> Rtu.Closed);
    Dnp3.Operate_ack { point; success = true }
  | Dnp3.Operate { point; action = _ } when point >= 0x100 ->
    Rtu.set_tap rtu ~position:(point - 0x100 - 16);
    Dnp3.Operate_ack { point; success = true }
  | Dnp3.Operate { point; _ } -> Dnp3.Operate_ack { point; success = false }
  | Dnp3.Poll_response _ | Dnp3.Operate_ack _ ->
    Dnp3.Operate_ack { point = 0; success = false }

(* Full wire round-trip to the device. *)
let exchange t (app : Dnp3.app) : (Dnp3.app, string) result =
  let request = Dnp3.encode { Dnp3.dest = Rtu.id t.rtu; src = 0xF0; app } in
  match Dnp3.decode request with
  | Error e -> Error ("request corrupted: " ^ e)
  | Ok decoded -> (
    let response_app = device_respond t.rtu decoded.Dnp3.app in
    let response =
      Dnp3.encode { Dnp3.dest = 0xF0; src = Rtu.id t.rtu; app = response_app }
    in
    match Dnp3.decode response with
    | Error e -> Error ("response corrupted: " ^ e)
    | Ok f -> Ok f.Dnp3.app)

let status_of_poll t (app : Dnp3.app) : Rtu.status option =
  match app with
  | Dnp3.Poll_response { binary_inputs; analog_inputs } -> (
    let feeders = Rtu.feeder_count t.rtu in
    match analog_inputs with
    | seq :: frequency :: tap :: rest when List.length rest = 2 * feeders ->
      let voltages = Array.of_list (List.filteri (fun i _ -> i < feeders) rest) in
      let currents = Array.of_list (List.filteri (fun i _ -> i >= feeders) rest) in
      Some
        {
          Rtu.rtu_id = Rtu.id t.rtu;
          seq;
          breakers =
            Array.of_list
              (List.map (fun b -> if b then Rtu.Closed else Rtu.Open) binary_inputs);
          voltages_mv = voltages;
          currents_ma = currents;
          frequency_mhz = frequency;
          tap_position = tap;
        }
    | _ -> None)
  | Dnp3.Poll_request | Dnp3.Operate _ | Dnp3.Operate_ack _ -> None

(* --- Modbus polling: coils carry breaker states; holding registers
   carry a 32-bit big-endian register map:
   [seq; frequency; voltages...; currents...] as register PAIRS, then
   one register for the tap position (offset +16). --- *)

let registers_of_i32 v =
  let v = v land 0xFFFFFFFF in
  [ (v lsr 16) land 0xFFFF; v land 0xFFFF ]

let i32_of_registers hi lo = (hi lsl 16) lor lo

let modbus_register_map (s : Rtu.status) =
  List.concat_map registers_of_i32
    ((s.Rtu.seq :: s.Rtu.frequency_mhz :: Array.to_list s.Rtu.voltages_mv)
    @ Array.to_list s.Rtu.currents_ma)
  @ [ s.Rtu.tap_position + 16 ]

(* The device side of a Modbus exchange. *)
let device_respond_modbus rtu (req : Modbus.request) : Modbus.response =
  match req with
  | Modbus.Read_coils { start; count } ->
    let s = Rtu.read_status rtu in
    let bits =
      List.init count (fun i ->
          let idx = start + i in
          idx < Array.length s.Rtu.breakers && s.Rtu.breakers.(idx) = Rtu.Closed)
    in
    Modbus.Coils bits
  | Modbus.Read_holding_registers { start; count } ->
    let regs = modbus_register_map (Rtu.read_status rtu) in
    Modbus.Holding_registers
      (List.init count (fun i ->
           match List.nth_opt regs (start + i) with Some r -> r | None -> 0))
  | Modbus.Write_single_coil { address; value } ->
    if address < Rtu.breaker_count rtu then begin
      Rtu.operate_breaker rtu ~index:address
        ~desired:(if value then Rtu.Closed else Rtu.Open);
      Modbus.Coil_written { address; value }
    end
    else Modbus.Exception_response { function_code = 0x05; exception_code = 2 }
  | Modbus.Write_single_register { address; value } ->
    if address = 0x100 then begin
      Rtu.set_tap rtu ~position:(value - 16);
      Modbus.Register_written { address; value }
    end
    else Modbus.Exception_response { function_code = 0x06; exception_code = 2 }
  | Modbus.Read_discrete_inputs _ | Modbus.Read_input_registers _
  | Modbus.Write_multiple_coils _ | Modbus.Write_multiple_registers _ ->
    (* The RTU proxy map only spans coils and holding registers; the
       fleet's register-mapped devices (lib/field) serve the rest. *)
    let function_code =
      match req with
      | Modbus.Read_discrete_inputs _ -> 0x02
      | Modbus.Read_input_registers _ -> 0x04
      | Modbus.Write_multiple_coils _ -> 0x0F
      | _ -> 0x10
    in
    Modbus.Exception_response { function_code; exception_code = 1 }

let modbus_exchange t (req : Modbus.request) : (Modbus.response, string) result =
  t.next_txn <- t.next_txn + 1;
  let frame = { Modbus.transaction = t.next_txn land 0xFFFF; unit_id = Rtu.id t.rtu land 0xFF; body = req } in
  match Modbus.decode_request (Modbus.encode_request frame) with
  | Error e -> Error ("request corrupted: " ^ e)
  | Ok decoded -> (
    let response = device_respond_modbus t.rtu decoded.Modbus.body in
    let rframe = { Modbus.transaction = decoded.Modbus.transaction; unit_id = decoded.Modbus.unit_id; body = response } in
    match Modbus.decode_response (Modbus.encode_response rframe) with
    | Error e -> Error ("response corrupted: " ^ e)
    | Ok r -> Ok r.Modbus.body)

let modbus_poll_status t : Rtu.status option =
  let breakers = Rtu.breaker_count t.rtu in
  let feeders = Rtu.feeder_count t.rtu in
  let reg_count = (2 * (2 + (2 * feeders))) + 1 in
  match
    ( modbus_exchange t (Modbus.Read_coils { start = 0; count = breakers }),
      modbus_exchange t
        (Modbus.Read_holding_registers { start = 0; count = reg_count }) )
  with
  | Ok (Modbus.Coils bits), Ok (Modbus.Holding_registers regs)
    when List.length regs = reg_count -> (
    let arr = Array.of_list regs in
    let i32 k = i32_of_registers arr.((2 * k)) arr.((2 * k) + 1) in
    (* The two exchanges each sampled the device; use the second
       read's sequence number. *)
    match List.length bits = breakers with
    | false -> None
    | true ->
      Some
        {
          Rtu.rtu_id = Rtu.id t.rtu;
          seq = i32 0;
          breakers =
            Array.of_list
              (List.map (fun b -> if b then Rtu.Closed else Rtu.Open) bits);
          voltages_mv = Array.init feeders (fun i -> i32 (2 + i));
          currents_ma = Array.init feeders (fun i -> i32 (2 + feeders + i));
          frequency_mhz = i32 1;
          tap_position = arr.(reg_count - 1) - 16;
        })
  | _ -> None

let poll t =
  if t.running then begin
    Rtu.tick t.rtu;
    let status =
      match t.protocol with
      | `Dnp3 -> (
        match exchange t Dnp3.Poll_request with
        | Error _ -> None (* corrupted local exchange: next poll retries *)
        | Ok response -> status_of_poll t response)
      | `Modbus -> modbus_poll_status t
    in
    match status with
    | None -> ()
    | Some status ->
      t.polls_sent <- t.polls_sent + 1;
      ignore (Endpoint.send_op t.endpoint (Op.Status_report status) : Bft.Update.t)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    Endpoint.start t.endpoint;
    ignore
      (Sim.Engine.periodic ~shard:t.shard t.engine
         ~interval_us:t.poll_interval_us (fun () -> poll t)
        : Sim.Engine.timer)
  end

(* Actuate a master command. Commands arrive as DNP3 frames (the
   replicated master speaks DNP3 for controls); a Modbus proxy acts as
   a protocol gateway and reissues them as Modbus writes. *)
let actuate t frame =
  match Dnp3.decode frame with
  | Error _ -> ()
  | Ok f -> (
    match t.protocol with
    | `Dnp3 -> (
      match device_respond t.rtu f.Dnp3.app with
      | Dnp3.Operate_ack { success = true; _ } ->
        t.commands_applied <- t.commands_applied + 1
      | Dnp3.Operate_ack _ | Dnp3.Poll_request | Dnp3.Poll_response _
      | Dnp3.Operate _ -> ())
    | `Modbus -> (
      match f.Dnp3.app with
      | Dnp3.Operate { point; action } when point < Rtu.breaker_count t.rtu -> (
        match
          modbus_exchange t
            (Modbus.Write_single_coil
               { address = point; value = action = Dnp3.Close })
        with
        | Ok (Modbus.Coil_written _) ->
          t.commands_applied <- t.commands_applied + 1
        | Ok _ | Error _ -> ())
      | Dnp3.Operate { point; _ } when point >= 0x100 -> (
        match
          modbus_exchange t
            (Modbus.Write_single_register
               { address = 0x100; value = point - 0x100 })
        with
        | Ok (Modbus.Register_written _) ->
          t.commands_applied <- t.commands_applied + 1
        | Ok _ | Error _ -> ())
      | Dnp3.Operate _ | Dnp3.Poll_request | Dnp3.Poll_response _
      | Dnp3.Operate_ack _ -> ()))

let handle_command_share t (reply : Reply.t) ~frame =
  let key = reply.Reply.update_key in
  if not (Hashtbl.mem t.actuated key) then begin
    let shares =
      match Bft.Tbl.Pair.find_opt t.command_shares key with
      | Some s -> s
      | None ->
        let s = Shares.create () in
        Bft.Tbl.Pair.replace t.command_shares key s;
        s
    in
    match Shares.add shares ~groups:t.groups reply with
    | None -> ()
    | Some _ ->
      Hashtbl.replace t.actuated key ();
      Bft.Tbl.Pair.remove t.command_shares key;
      actuate t frame
  end

let handle_reply t (reply : Reply.t) =
  match reply.Reply.body with
  | Reply.Command { rtu = target; frame } when target = Rtu.id t.rtu ->
    handle_command_share t reply ~frame
  | Reply.Command _ | Reply.Ack ->
    (match Endpoint.handle_reply t.endpoint reply with
    | None | Some Reply.Ack -> ()
    | Some (Reply.Command { rtu = target; frame }) ->
      if target = Rtu.id t.rtu then actuate t frame)
