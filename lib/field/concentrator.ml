type config = {
  devices : int;
  scan_interval_us : int;
  phase_us : int;
  write_interval_us : int;
  keepalive_loss : float;
}

let default_config =
  {
    devices = 100;
    scan_interval_us = 200_000;
    phase_us = 0;
    write_interval_us = 1_000_000;
    keepalive_loss = 0.005;
  }

type frame = [ `Advert | `Report of int ]

(* Every report frame a scan can charge, built once: a tick raises at
   most one event per input register and one per status bit. *)
let reports : frame array =
  Array.init
    (Device.input_registers_count + Device.discrete_inputs_count + 1)
    (fun n -> `Report n)

type t = {
  id : int;
  config : config;
  engine : Sim.Engine.t;
  shard : int;
  rng : Sim.Rng.t;  (* write-workload draws only *)
  devices : Device.t;
  sessions : Session.t;
  (* The last report frame of each device, kept for the relink replay:
     its sequence number (-1: none yet) and event count. *)
  last_seq : int array;
  last_events : int array;
  endpoint : Scada.Endpoint.t;
  charge : frame -> unit;
  mutable running : bool;
  mutable round : int;
  mutable next_txn : int;
  mutable events_seen : int;
  mutable reports_accepted : int;
  mutable adverts_sent : int;
  mutable report_frames : int;
  mutable poll_bytes : int;
  mutable polls_sent : int;
  mutable writes_issued : int;
  mutable confirmed_events : int;
  mutable confirmed_writes : int;
  mutable on_complete : Bft.Update.t -> latency_us:int -> unit;
}

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
  poll_bytes : int;
  writes_issued : int;
  confirmed_events : int;
  confirmed_writes : int;
}

(* One Modbus round trip with device [i] over the modelled field link,
   both directions charged to [poll_bytes]; the encoded response. *)
let exchange (t : t) i body =
  t.next_txn <- t.next_txn + 1;
  let unit_id = Device.id t.devices i land 0xFF in
  let raw =
    Scada.Modbus.encode_request { transaction = t.next_txn land 0xFFFF; unit_id; body }
  in
  t.poll_bytes <- t.poll_bytes + String.length raw;
  match Scada.Modbus.decode_request raw with
  | Error _ -> None
  | Ok dec ->
    let renc =
      Scada.Modbus.encode_response
        { dec with body = Device.serve t.devices i dec.Scada.Modbus.body }
    in
    t.poll_bytes <- t.poll_bytes + String.length renc;
    Some renc

let note_complete (t : t) u ~latency_us:_ =
  match Scada.Op.of_update u with
  | Ok (Scada.Op.Field_report { events; _ }) ->
    t.confirmed_events <- t.confirmed_events + events
  | Ok (Scada.Op.Field_write { device; address; value; _ }) -> (
    (* Actuate only once the write is ordered and confirmed: gateway
       the ordered command into a Modbus multi-register write on the
       device's field link. *)
    let i = device - Device.id t.devices 0 in
    if i >= 0 && i < Device.count t.devices then
      let write =
        Scada.Modbus.Write_multiple_registers { start = address; values = [ value ] }
      in
      match Option.map Scada.Modbus.decode_response (exchange t i write) with
      | Some (Ok { Scada.Modbus.body = Scada.Modbus.Registers_written _; _ }) ->
        t.confirmed_writes <- t.confirmed_writes + 1
      | Some (Ok _ | Error _) | None -> ())
  | Ok _ | Error _ -> ()

let create ?telemetry ?batch ?submit_batch ?(shard = 0) ~engine ~id ~client_id
    ~first_device ~seed ~group ~resubmit_timeout_us ~submit ~charge
    ~config:(config : config) ()
    =
  if config.devices <= 0 then
    invalid_arg "Concentrator.create: need at least one device";
  if config.scan_interval_us <= 0 then
    invalid_arg "Concentrator.create: scan_interval_us <= 0";
  if config.phase_us < 0 then invalid_arg "Concentrator.create: phase_us < 0";
  if config.write_interval_us < 0 then
    invalid_arg "Concentrator.create: write_interval_us < 0";
  if not (config.keepalive_loss >= 0. && config.keepalive_loss <= 1.) then
    invalid_arg "Concentrator.create: keepalive_loss outside [0, 1]";
  let endpoint =
    Scada.Endpoint.create ?telemetry ?batch ?submit_batch ~shard ~engine
      ~client_id ~group ~resubmit_timeout_us ~submit ()
  in
  let t =
    {
      id;
      config;
      engine;
      shard;
      rng = Sim.Rng.create (Sim.Rng.derive ~seed ~index:0);
      devices =
        Device.create ~first_device ~count:config.devices
          ~seed:(fun i -> Sim.Rng.derive ~seed ~index:(1 + i));
      sessions =
        Session.create ~count:config.devices
          ~seed:(fun i -> Sim.Rng.derive ~seed ~index:(1 + config.devices + i))
          ~loss:config.keepalive_loss;
      last_seq = Array.make config.devices (-1);
      last_events = Array.make config.devices 0;
      endpoint;
      charge;
      running = false;
      round = 0;
      next_txn = 0;
      events_seen = 0;
      reports_accepted = 0;
      adverts_sent = 0;
      report_frames = 0;
      poll_bytes = 0;
      polls_sent = 0;
      writes_issued = 0;
      confirmed_events = 0;
      confirmed_writes = 0;
      on_complete = (fun _ ~latency_us:_ -> ());
    }
  in
  Scada.Endpoint.set_on_complete endpoint (fun u ~latency_us ->
      note_complete t u ~latency_us;
      t.on_complete u ~latency_us);
  t

let endpoint t = t.endpoint

let set_on_complete t f = t.on_complete <- f

(* The two integrity polls read a whole register table, so their
   exchanges have the same length whatever the registers hold or the
   transaction id: measured once, on a representative device. *)
let poll_exchange_bytes body =
  let store =
    Device.create ~first_device:0 ~count:1 ~seed:(fun _ -> 0L)
  in
  let req = { Scada.Modbus.transaction = 0; unit_id = 0; body } in
  String.length (Scada.Modbus.encode_request req)
  + String.length
      (Scada.Modbus.encode_response { req with body = Device.serve store 0 body })

let input_poll_bytes =
  poll_exchange_bytes
    (Scada.Modbus.Read_input_registers
       { start = 0; count = Device.input_registers_count })

let discrete_poll_bytes =
  poll_exchange_bytes
    (Scada.Modbus.Read_discrete_inputs
       { start = 0; count = Device.discrete_inputs_count })

(* Periodic integrity poll: a full read of one register table over the
   modeled Modbus link, alternating between the two "new" read function
   codes. Staggered so 1/8th of the fleet polls each round. Only its
   length is kept, so it is charged without being encoded. *)
let integrity_poll (t : t) i =
  t.next_txn <- t.next_txn + 1;
  t.poll_bytes <-
    t.poll_bytes
    + (if (t.round + i) land 8 = 0 then input_poll_bytes else discrete_poll_bytes);
  t.polls_sent <- t.polls_sent + 1

let scan_round (t : t) =
  t.round <- t.round + 1;
  let round_events = ref 0 in
  let round_devices = ref 0 in
  let checksum = ref 0 in
  for i = 0 to Device.count t.devices - 1 do
    match Session.step t.sessions i with
    | `Offline -> ()
    | `Relink ->
      (* Capability-advertisement handshake, then replay of the last
         report frame (the device cannot know it was delivered). The
         concentrator's sequence high-watermark drops the duplicate. *)
      t.charge `Advert;
      t.adverts_sent <- t.adverts_sent + 1;
      let seq = t.last_seq.(i) in
      if seq >= 0 then begin
        t.charge reports.(t.last_events.(i));
        t.report_frames <- t.report_frames + 1;
        ignore (Session.accept t.sessions i ~seq : bool)
      end
    | `Online ->
      let n = Device.tick t.devices i in
      if (t.round + i) mod 8 = 0 then integrity_poll t i;
      if n > 0 then begin
        let seq = Session.next_seq t.sessions i in
        t.charge reports.(n);
        t.report_frames <- t.report_frames + 1;
        t.last_seq.(i) <- seq;
        t.last_events.(i) <- n;
        if Session.accept t.sessions i ~seq then begin
          t.events_seen <- t.events_seen + n;
          t.reports_accepted <- t.reports_accepted + 1;
          round_events := !round_events + n;
          incr round_devices;
          checksum :=
            ((!checksum * 31) + Device.report_checksum t.devices i)
            land 0x3FFF_FFFF
        end
      end
  done;
  (* Hierarchical aggregation: the whole round folds into one compact
     ordered operation, however many devices reported. *)
  if !round_events > 0 then
    ignore
      (Scada.Endpoint.send_op t.endpoint
         (Scada.Op.Field_report
            {
              concentrator = t.id;
              round = t.round;
              devices = !round_devices;
              events = !round_events;
              checksum = !checksum land 0x3FFF_FFFF;
            })
        : Bft.Update.t)

let issue_write (t : t) =
  let i = Sim.Rng.int t.rng (Device.count t.devices) in
  if Session.state t.sessions i = Session.Up then begin
    let address = Sim.Rng.int t.rng Device.holding_registers_count in
    let value = Sim.Rng.int t.rng 0x10000 in
    t.writes_issued <- t.writes_issued + 1;
    ignore
      (Scada.Endpoint.send_op t.endpoint
         (Scada.Op.Field_write
            { concentrator = t.id; device = Device.id t.devices i; address; value })
        : Bft.Update.t)
  end

(* Runs [f t] at [phase_us + interval_us], then every [interval_us]. *)
let every t ~interval_us f =
  ignore
    (Sim.Engine.schedule ~shard:t.shard t.engine
       ~delay_us:(t.config.phase_us + interval_us) (fun () ->
         f t;
         ignore
           (Sim.Engine.periodic ~shard:t.shard t.engine ~interval_us (fun () -> f t)
             : Sim.Engine.timer))
      : Sim.Engine.timer)

let start t =
  if not t.running then begin
    t.running <- true;
    Scada.Endpoint.start t.endpoint;
    every t ~interval_us:t.config.scan_interval_us scan_round;
    if t.config.write_interval_us > 0 then
      every t ~interval_us:t.config.write_interval_us issue_write
  end

let stats (t : t) =
  {
    device_count = Device.count t.devices;
    rounds = t.round;
    events_seen = t.events_seen;
    reports_accepted = t.reports_accepted;
    dups_dropped = Session.dups_dropped t.sessions;
    churn = Session.churn t.sessions;
    adverts_sent = t.adverts_sent;
    report_frames = t.report_frames;
    polls_sent = t.polls_sent;
    poll_bytes = t.poll_bytes;
    writes_issued = t.writes_issued;
    confirmed_events = t.confirmed_events;
    confirmed_writes = t.confirmed_writes;
  }

let handle_reply t reply =
  ignore (Scada.Endpoint.handle_reply t.endpoint reply : Scada.Reply.body option)
