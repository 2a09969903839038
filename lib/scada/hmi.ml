type t = { engine : Sim.Engine.t; endpoint : Endpoint.t }

let create ?telemetry ?batch ?submit_batch ?shard ~engine ~client_id ~group
    ~resubmit_timeout_us ~submit () =
  {
    engine;
    endpoint =
      Endpoint.create ?telemetry ?batch ?submit_batch ?shard ~engine ~client_id
        ~group ~resubmit_timeout_us ~submit ();
  }

let start t = Endpoint.start t.endpoint

let open_breaker t ~rtu ~breaker =
  Endpoint.send_op t.endpoint
    (Op.Breaker_command { rtu; breaker; desired = Rtu.Open })

let set_tap t ~rtu ~position =
  Endpoint.send_op t.endpoint (Op.Tap_command { rtu; position })

let read_state t =
  Endpoint.send_op t.endpoint
    (Op.Hmi_read { hmi_id = Endpoint.client_id t.endpoint })

let handle_reply t reply = ignore (Endpoint.handle_reply t.endpoint reply : Reply.body option)
let endpoint t = t.endpoint
let confirmed_commands t = Endpoint.completed_count t.endpoint
