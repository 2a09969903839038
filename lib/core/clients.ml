open Wire.Message

type t = {
  proxies : Scada.Proxy.t array;
  hmis : Scada.Hmi.t array;
  concentrators : Field.Concentrator.t array;
  hist : Stats.Histogram.t;
  series : Stats.Timeseries.t;
  submitted : int ref;
}

(* The per-concentrator supervisory write cadence: fixed by the
   deployment model, not configurable. *)
let field_write_interval_us = 1_000_000

(* Client node handler: replies (single or batched) go to the client's
   endpoint; clients ignore every other kind. *)
let set_handler ~net ~send node handle_reply =
  Overlay.Net.set_handler net node (fun delivery ->
      Send.check_delivery send ~sender:delivery.Overlay.Net.frame_src
        delivery.Overlay.Net.payload;
      match delivery.Overlay.Net.payload with
      | Replica_reply reply -> handle_reply reply
      | Reply_batch rs -> List.iter handle_reply rs
      | Prime_msg _ | Pbft_msg _ | Client_update _ | Client_batch _
      | Transfer_chunk _ | Epoch_frame _ | Cert_frame _ | Field_advert _
      | Field_report _ ->
        ())

let create ~engine ~net ~send ~epochs ~telemetry ~group ~batch ~shard
    ~universe ~seed ~substations ~hmis:hmi_count
    ~concentrators:concentrator_count ~devices ~scan_interval_us ~loss
    ~poll_interval_us ~resubmit_timeout_us =
  let hist = Stats.Histogram.create () in
  let series = Stats.Timeseries.create () in
  let submitted = ref 0 in
  let node_of_client c = universe + c in
  let record_latency _update ~latency_us =
    let ms = float_of_int latency_us /. 1000. in
    Stats.Histogram.add hist ms;
    Stats.Timeseries.add series ~time_us:(Sim.Engine.now engine) ms
  in
  (* Client-side origin failover. Each client has a home origin
     (client mod n_cur within the current membership); when the origin
     it is currently using makes no progress for a full retransmission
     timeout, the client suspects it for a while and moves to the next
     member. Retransmissions themselves go to every current member (as
     Prime clients do) and exactly-once delivery collapses the
     duplicates. Origins are tracked by global replica id so suspicion
     survives membership changes. *)
  let clients = substations + hmi_count + concentrator_count in
  let suspected_until = Array.make_matrix clients universe min_int in
  let current_default = Array.make clients (-1) in
  let default_since = Array.make clients 0 in
  let pick_origin client now =
    let members = Epochs.members epochs in
    let m = Array.length members in
    let start = client mod m in
    let rec find i =
      if i >= m then members.(start)
      else begin
        let o = members.((start + i) mod m) in
        if suspected_until.(client).(o) > now then find (i + 1) else o
      end
    in
    let o = find 0 in
    if o <> current_default.(client) then begin
      current_default.(client) <- o;
      default_since.(client) <- now
    end;
    o
  in
  let submit_of client ~attempt (u : Bft.Update.t) =
    incr submitted;
    let now = Sim.Engine.now engine in
    let payload = Client_update u in
    if attempt = 0 then begin
      let origin = pick_origin client now in
      Send.payload send ~src_node:(node_of_client client) ~dst_node:origin
        payload
    end
    else begin
      (* Blame the current origin only once it has had a full timeout
         to prove itself (the timed-out update may predate it). *)
      let cur = pick_origin client now in
      if now - default_since.(client) > resubmit_timeout_us then begin
        suspected_until.(client).(cur) <- now + (8 * resubmit_timeout_us);
        ignore (pick_origin client now : int)
      end;
      (* One physical payload for the whole retransmission broadcast. *)
      Array.iter
        (fun r ->
          Send.payload send ~src_node:(node_of_client client) ~dst_node:r
            payload)
        (Epochs.members epochs)
    end
  in
  (* First-attempt batch flush from an endpoint: one Client_batch frame
     to the chosen origin (an endpoint ships a single update through
     [submit_of] as the legacy frame). *)
  let submit_batch_of client (updates : Bft.Update.t list) =
    submitted := !submitted + List.length updates;
    let origin = pick_origin client (Sim.Engine.now engine) in
    Send.payload send ~src_node:(node_of_client client) ~dst_node:origin
      (Client_batch updates)
  in
  let proxies =
    Array.init substations (fun i ->
        let rtu =
          Scada.Rtu.create ~id:i ~breakers:4 ~feeders:2 ~rng:(Sim.Engine.rng engine)
        in
        (* Mixed field-protocol fleet, as in real substations: even
           RTUs speak DNP3, odd ones Modbus (the proxy gateways the
           master's DNP3 commands accordingly). *)
        let field_protocol = if i mod 2 = 0 then `Dnp3 else `Modbus in
        let p =
          Scada.Proxy.create ~field_protocol ~telemetry ~batch
            ~submit_batch:(submit_batch_of i) ~shard ~engine ~rtu ~client_id:i
            ~poll_interval_us ~group ~resubmit_timeout_us
            ~submit:(submit_of i) ()
        in
        Scada.Endpoint.set_on_complete (Scada.Proxy.endpoint p) record_latency;
        set_handler ~net ~send (node_of_client i) (Scada.Proxy.handle_reply p);
        p)
  in
  let hmis =
    Array.init hmi_count (fun j ->
        let client = substations + j in
        let h =
          Scada.Hmi.create ~telemetry ~batch ~submit_batch:(submit_batch_of client)
            ~shard ~engine ~client_id:client ~group ~resubmit_timeout_us
            ~submit:(submit_of client) ()
        in
        Scada.Endpoint.set_on_complete (Scada.Hmi.endpoint h) record_latency;
        set_handler ~net ~send (node_of_client client) (Scada.Hmi.handle_reply h);
        h)
  in
  (* Device fleet: per-substation concentrators, each an ordinary BFT
     client whose devices' report-by-exception events fold into one
     compact ordered aggregate per scan round — BFT load stays
     independent of fleet size. *)
  let concentrators =
    if concentrator_count = 0 then [||]
    else begin
      let nc = concentrator_count in
      let per = devices / nc and rem = devices mod nc in
      let first = ref 0 in
      Array.init nc (fun i ->
          let devices = per + if i < rem then 1 else 0 in
          let first_device = !first in
          first := !first + devices;
          let client = substations + hmi_count + i in
          let config =
            {
              Field.Concentrator.devices;
              scan_interval_us;
              (* Stagger the rounds across the interval so the core
                 sees a stream of aggregates, not a thundering herd. *)
              phase_us = i * scan_interval_us / nc;
              write_interval_us = field_write_interval_us;
              keepalive_loss = loss;
            }
          in
          let c =
            Field.Concentrator.create ~telemetry ~batch
              ~submit_batch:(submit_batch_of client) ~shard ~engine ~id:i
              ~client_id:client ~first_device
              ~seed:(Sim.Rng.derive ~seed ~index:(0xF1E1D + i))
              ~group ~resubmit_timeout_us ~submit:(submit_of client)
              ~charge:(fun frame ->
                Send.charge_field_frame send ~node:(node_of_client client) frame)
              ~config ()
          in
          Field.Concentrator.set_on_complete c record_latency;
          set_handler ~net ~send (node_of_client client)
            (Field.Concentrator.handle_reply c);
          c)
    end
  in
  (* Every client endpoint (proxies, HMIs and concentrators) accepts
     replies signed by the newest epoch's group (and the one before it)
     from each cutover on. *)
  let endpoints =
    Array.concat
      [
        Array.map Scada.Proxy.endpoint proxies;
        Array.map Scada.Hmi.endpoint hmis;
        Array.map Field.Concentrator.endpoint concentrators;
      ]
  in
  Epochs.on_group epochs (fun group ->
      Array.iter (fun e -> Scada.Endpoint.push_group e group) endpoints);
  { proxies; hmis; concentrators; hist; series; submitted }

let start t =
  Array.iter Scada.Proxy.start t.proxies;
  Array.iter Scada.Hmi.start t.hmis;
  Array.iter Field.Concentrator.start t.concentrators

let proxy t i = t.proxies.(i)
let hmi t i = t.hmis.(i)
let hmi_count t = Array.length t.hmis
let concentrator t i = t.concentrators.(i)
let concentrator_count t = Array.length t.concentrators

(* Fleet-wide roll-up of the concentrator stats (rounds is the max, not
   the sum: concentrators scan in lock-step cadence). *)
let fleet_stats t : Field.Concentrator.stats =
  Array.fold_left
    (fun (acc : Field.Concentrator.stats) c ->
      let s = Field.Concentrator.stats c in
      {
        Field.Concentrator.device_count = acc.device_count + s.device_count;
        rounds = max acc.rounds s.rounds;
        events_seen = acc.events_seen + s.events_seen;
        reports_accepted = acc.reports_accepted + s.reports_accepted;
        dups_dropped = acc.dups_dropped + s.dups_dropped;
        churn = acc.churn + s.churn;
        adverts_sent = acc.adverts_sent + s.adverts_sent;
        report_frames = acc.report_frames + s.report_frames;
        polls_sent = acc.polls_sent + s.polls_sent;
        poll_bytes = acc.poll_bytes + s.poll_bytes;
        writes_issued = acc.writes_issued + s.writes_issued;
        confirmed_events = acc.confirmed_events + s.confirmed_events;
        confirmed_writes = acc.confirmed_writes + s.confirmed_writes;
      })
    {
      Field.Concentrator.device_count = 0;
      rounds = 0;
      events_seen = 0;
      reports_accepted = 0;
      dups_dropped = 0;
      churn = 0;
      adverts_sent = 0;
      report_frames = 0;
      polls_sent = 0;
      poll_bytes = 0;
      writes_issued = 0;
      confirmed_events = 0;
      confirmed_writes = 0;
    }
    t.concentrators

let latency_histogram t = t.hist
let latency_series t = t.series
let submitted t = !(t.submitted)
