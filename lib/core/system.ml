type protocol = Prime_protocol | Pbft_protocol

(* The deployment's message union lives in [Wire.Message] so the wire
   codecs can serialise complete frames without a dependency cycle. *)
type payload = Wire.Message.t

open Wire.Message

type config = {
  quorum : Bft.Quorum.t;
  protocol : protocol;
  site_sizes : int list;
  standby_site_sizes : int list;
  control_centers : int;
  substations : int;
  hmis : int;
  poll_interval_us : int;
  dissemination : Overlay.Net.mode;
  lan_latency_us : int;
  wan_latency_us : int -> int -> int;
  client_link_latency_us : int;
  lan_bandwidth_bps : int;
  wan_bandwidth_bps : int;
  resubmit_timeout_us : int;
  max_batch : int;
  batch_delay_us : int;
  field_concentrators : int;
      (* 0 (the default) disables the modeled device fleet entirely:
         no concentrator clients, no timers, no RNG draws, no frames —
         the trajectory is bit-identical to a build without lib/field. *)
  field_devices : int; (* total across all concentrators *)
  field_scan_interval_us : int;
  field_loss : float; (* per-round keep-alive loss probability *)
  diversity_variants : int;
  seed : int64;
  wire_debug : bool;
  telemetry : bool;
  adaptive : bool;
      (* false (the default) disables the two-level resilience
         controller entirely: no Local/Global instances, no tick timer
         — the trajectory is bit-identical to a build without
         lib/control. The tuning plane (knobs + actuator) always
         exists; with no controller issuing requests it never acts. *)
  tweak_prime : Prime.Replica.config -> Prime.Replica.config;
}

(* Controller sampling cadence and the per-concentrator supervisory
   write cadence: fixed by the deployment model, not configurable. *)
let adapt_tick_us = 250_000
let field_write_interval_us = 1_000_000

let default_config () =
  {
    quorum = Bft.Quorum.create ~n:6 ~f:1 ~k:1;
    protocol = Prime_protocol;
    site_sizes = [ 2; 2; 1; 1 ];
    standby_site_sizes = [];
    control_centers = 2;
    substations = 10;
    hmis = 1;
    poll_interval_us = 100_000;
    dissemination = Overlay.Net.Shortest;
    lan_latency_us = 100;
    wan_latency_us = Overlay.Topology.east_coast_wan_us;
    client_link_latency_us = 2_000;
    lan_bandwidth_bps = 125_000_000;
    wan_bandwidth_bps = 12_500_000;
    resubmit_timeout_us = 2_000_000;
    max_batch = 1;
    batch_delay_us = 10_000;
    field_concentrators = 0;
    field_devices = 0;
    field_scan_interval_us = 200_000;
    field_loss = 0.005;
    diversity_variants = 8;
    seed = 0x5917EL;
    wire_debug = false;
    telemetry = false;
    adaptive = false;
    tweak_prime = Fun.id;
  }

type replica_instance =
  | Prime_replica of Prime.Replica.t
  | Pbft_replica of Pbft.Replica.t

(* A joining replica's chunk-gated state transfer: the vouched
   (snapshot, master) pair is held aside while its serialised bytes
   traverse the overlay as [Transfer_chunk] frames; missing chunks are
   re-requested under the bounded-backoff ARQ and the new instance is
   only installed once every chunk has arrived. *)
type join_session = {
  js_xfer : int;
  js_replica : int;
  js_epoch : int;
  js_donor : int;
  js_snap : Prime.Replica.snapshot;
  js_master : Scada.Master.t;
  js_chunks : Recovery.State_transfer.chunk array;
  js_received : bool array;
  mutable js_done : bool;
}

type t = {
  cfg : config;
  engine : Sim.Engine.t;
  topo : Overlay.Topology.t;
  net : payload Overlay.Net.t;
  group : Cryptosim.Threshold.group; (* epoch-0 threshold group *)
  n : int; (* genesis active replica count *)
  universe : int; (* active + pre-provisioned standby replicas *)
  mutable replicas : replica_instance array; (* universe-sized *)
  masters : Scada.Master.t array; (* elements replaced on state transfer *)
  mutable proxies : Scada.Proxy.t array;
  mutable hmis : Scada.Hmi.t array;
  mutable concentrators : Field.Concentrator.t array;
  replica_sites : int array;
  hist : Stats.Histogram.t;
  series : Stats.Timeseries.t;
  mutable submitted : int;
  diversity : Recovery.Diversity.t;
  mutable scheduler : Recovery.Scheduler.t option;
  mutable recovery_listeners :
    ([ `Begin | `Complete ] -> Bft.Types.replica -> unit) list;
  share_cost_us : int;
  mutable reply_batch : Bft.Batch.policy;
      (* live aggregation policy; hot-swapped through the knob plane *)
  reply_accs : (int * Scada.Reply.t) Bft.Batch.acc array;
  (* --- runtime tuning plane / adaptive controller --- *)
  mutable dissemination : Overlay.Net.mode;
      (* live dissemination mode read per send; initialised from
         [cfg.dissemination], hot-swapped through the knob plane.
         Frames already in flight keep the route captured at submit. *)
  knobs : Control.Knobs.t;
  mutable locals : Control.Local.t array; (* empty unless cfg.adaptive *)
  mutable global_ctl : Control.Global.t option;
  (* Wire accounting, indexed by Wire.Message.kind_index. *)
  wire_frames : int array;
  wire_bytes : int array;
  mutable size_memo_payload : payload; (* last measured payload *)
  mutable size_memo_bytes : int;
  mutable wire_decode_errors : int;
  telemetry : Telemetry.Sink.t;
  (* --- Epoch-ed membership (online reconfiguration) --- *)
  directory : Member.Directory.t;
  epoch_of : int array; (* per global replica; -1 = standby or retired *)
  rank_maps : (int, int array * int array) Hashtbl.t;
      (* epoch -> (rank -> global id, global id -> rank or -1) *)
  mutable groups : (int * Cryptosim.Threshold.group) list; (* epoch -> group *)
  mutable cur_epoch : int;
  mutable cur_members : int array; (* rank -> global, current epoch *)
  pending_reconfig : (int * Member.Reconfig.t) option array;
  mutable cutovers : (int * int * int) list;
      (* (epoch, boundary_exec, time_us), newest first *)
  mutable stale_epoch_frames : int;
  mutable epoch_violation : string option; (* latched, never cleared *)
  sessions : (int, join_session) Hashtbl.t; (* xfer_id -> session *)
  mutable next_xfer : int;
  mutable reconciler_armed : bool;
  lag_since : int array; (* first time a member was seen lagging; -1 = none *)
  arq : Recovery.State_transfer.arq;
  mutable make_member_instance :
    cert:Member.Cert.t -> rank:int -> global:int -> replica_instance;
  mutable epoch_listeners : (int -> unit) list;
}

let config t = t.cfg
let engine t = t.engine
let net t = t.net
let knobs t = t.knobs
let dissemination t = t.dissemination
let shard_partition t = Overlay.Net.partition t.net
let telemetry t = t.telemetry
let replica_count t = t.n
let universe_count t = t.universe
let proxy t i = t.proxies.(i)
let hmi t i = t.hmis.(i)
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
let master t r = t.masters.(r)
let latency_histogram t = t.hist
let latency_series t = t.series
let confirmed_updates t = Stats.Histogram.count t.hist
let submitted_updates t = t.submitted
let diversity t = t.diversity
let node_of_replica _t r = r
let node_of_client t c = t.universe + c
let site_of_replica t r = t.replica_sites.(r)

let faults t r =
  match t.replicas.(r) with
  | Prime_replica p -> Prime.Replica.faults p
  | Pbft_replica p -> Pbft.Replica.faults p

let view_of t r =
  match t.replicas.(r) with
  | Prime_replica p -> Prime.Replica.view p
  | Pbft_replica p -> Pbft.Replica.view p

let exec_log t r =
  match t.replicas.(r) with
  | Prime_replica p -> Prime.Replica.exec_log p
  | Pbft_replica p -> Pbft.Replica.exec_log p

let instance_halted t r =
  match t.replicas.(r) with
  | Prime_replica p -> Prime.Replica.halted p
  | Pbft_replica p -> Pbft.Replica.halted p

let halt_instance t r =
  match t.replicas.(r) with
  | Prime_replica p -> Prime.Replica.halt p
  | Pbft_replica p -> Pbft.Replica.halt p

(* --- Epoch introspection --- *)

let directory t = t.directory
let current_epoch t = t.cur_epoch
let epoch_of_replica t r = t.epoch_of.(r)
let current_members t = Array.to_list t.cur_members
let stale_epoch_frames t = t.stale_epoch_frames
let bump_stale_epoch t = t.stale_epoch_frames <- t.stale_epoch_frames + 1
let cutovers t = List.rev t.cutovers
let epoch_violation t = t.epoch_violation
let on_epoch_change t f = t.epoch_listeners <- f :: t.epoch_listeners

let latch_violation t msg =
  if t.epoch_violation = None then t.epoch_violation <- Some msg

let group_for t r =
  let e = max 0 t.epoch_of.(r) in
  match List.assoc_opt e t.groups with Some g -> g | None -> t.group

(* Instantaneous per-epoch activity: how many replicas of each epoch are
   currently live (instance running, node reachable). The safety oracle
   asserts that at most one epoch ever holds a quorum of these. *)
let epoch_activity t =
  let tbl = Hashtbl.create 7 in
  for g = 0 to t.universe - 1 do
    let e = t.epoch_of.(g) in
    if
      e >= 0
      && (not (faults t g).Bft.Faults.crashed)
      && (not (instance_halted t g))
      && Overlay.Net.node_alive t.net (node_of_replica t g)
    then
      Hashtbl.replace tbl e
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e))
  done;
  Hashtbl.fold (fun e c acc -> (e, c) :: acc) tbl [] |> List.sort compare

let current_leader t =
  (* Leader of the median view among the current epoch's live members,
     mapped from protocol rank back to a global replica id. *)
  let members = t.cur_members in
  let m = Array.length members in
  let views =
    Array.to_list members
    |> List.filter_map (fun r ->
           if
             t.epoch_of.(r) = t.cur_epoch
             && not (faults t r).Bft.Faults.crashed
           then Some (view_of t r)
           else None)
    |> List.sort compare
  in
  let view =
    match views with
    | [] -> 0
    | vs -> List.nth vs (List.length vs / 2)
  in
  members.(Bft.Types.leader_of ~n:m view)

(* ------------------------------------------------------------------ *)
(* Topology: replica sites + one node per client, multi-homed to both
   control centers. Standby sites are laid out (and linked) up front so
   membership growth never has to rewire the physical mesh — their
   nodes simply stay dark until an epoch admits them.                  *)

(* Global replica ids per site: consecutive, in [sizes] order — the
   same numbering [Overlay.Topology.multi_site] gives the site nodes. *)
let site_members sizes =
  let offset = ref 0 in
  List.map
    (fun size ->
      let members = List.init size (fun i -> !offset + i) in
      offset := !offset + size;
      members)
    sizes

let build_topology cfg =
  let all_sizes = cfg.site_sizes @ cfg.standby_site_sizes in
  let universe = List.fold_left ( + ) 0 all_sizes in
  let sites = List.length all_sizes in
  let clients = cfg.substations + cfg.hmis + cfg.field_concentrators in
  let topo =
    Overlay.Topology.multi_site ~nodes:(universe + clients)
      ~site_sizes:all_sizes ~lan_latency_us:cfg.lan_latency_us
      ~wan_latency_us:cfg.wan_latency_us
      ~lan_bandwidth_bps:cfg.lan_bandwidth_bps
      ~wan_bandwidth_bps:cfg.wan_bandwidth_bps ()
  in
  let site_members = site_members all_sizes in
  (* Clients: one node each, own site id, linked to the first node of
     every control-center site. *)
  let cc_gateways =
    List.filteri (fun i _ -> i < cfg.control_centers) site_members
    |> List.filter_map (function gw :: _ -> Some gw | [] -> None)
  in
  for c = 0 to clients - 1 do
    let node = universe + c in
    Overlay.Topology.assign_site topo node (sites + c);
    List.iter
      (fun gw ->
        Overlay.Topology.add_link topo ~a:node ~b:gw
          ~latency_us:cfg.client_link_latency_us
          ~bandwidth_bps:cfg.wan_bandwidth_bps)
      cc_gateways
  done;
  (topo, site_members)

(* Genesis membership certificate: the configured sites, control
   centers first, the first one active. *)
let genesis_cert cfg =
  let sites =
    List.mapi
      (fun i members ->
        let role =
          if i = 0 then Member.Cert.Active_cc
          else if i < cfg.control_centers then Member.Cert.Backup_cc
          else Member.Cert.Data_center
        in
        { Member.Cert.site_id = i; role; members })
      (site_members cfg.site_sizes)
  in
  Member.Cert.genesis ~f:cfg.quorum.Bft.Quorum.f ~k:cfg.quorum.Bft.Quorum.k
    ~sites

(* ------------------------------------------------------------------ *)
(* Creation.                                                           *)

let trace_of_update (u : Bft.Update.t) =
  Telemetry.Span.trace_id ~client:u.Bft.Update.client
    ~seq:u.Bft.Update.client_seq

(* The trace context a payload carries through the overlay: the update
   identity it transports, for the message kinds that transport one.
   Only consulted when the sink is enabled, so the disabled-path cost
   in [send_payload] is a single bool load. *)
let trace_of_reply (r : Scada.Reply.t) =
  let client, seq = r.Scada.Reply.update_key in
  Telemetry.Span.trace_id ~client ~seq

(* Batched frames are attributed to their first member: a batch is one
   physical frame, and per-hop net spans need a single representative. *)
let rec trace_of_payload payload =
  match payload with
  | Client_update u -> trace_of_update u
  | Client_batch (u :: _) -> trace_of_update u
  | Replica_reply r -> trace_of_reply r
  | Reply_batch (r :: _) -> trace_of_reply r
  | Prime_msg (_, Prime.Msg.Po_request { update; _ }) -> trace_of_update update
  | Prime_msg (_, Prime.Msg.Po_batch { updates = u :: _; _ }) ->
    trace_of_update u
  | Prime_msg (_, Prime.Msg.Recon_reply { update; _ }) -> trace_of_update update
  | Pbft_msg (_, Pbft.Msg.Request { update; _ }) -> trace_of_update update
  | Pbft_msg (_, Pbft.Msg.Preprepare { proposal = { updates = u :: _; _ }; _ })
    ->
    trace_of_update u
  | Epoch_frame (_, inner) -> trace_of_payload inner
  | Client_batch [] | Reply_batch [] | Prime_msg _ | Pbft_msg _
  | Transfer_chunk _ | Cert_frame _ | Field_advert _ | Field_report _ ->
    Telemetry.Span.no_trace

(* Every protocol send is charged the exact frame length (envelope
   header + encoded body + authenticator) via the measured-size pass,
   never an approximation — and never a serialisation: Wire.Measure
   walks the value arithmetically. A broadcast hands the same physical
   payload to every recipient, and frame size is sender-independent, so
   a one-slot memo keyed by physical identity measures each payload
   once per n-1-way broadcast. Per-kind totals live in preallocated
   counter arrays indexed by Wire.Message.kind_index. *)
let send_payload t ~src_node ~dst_node payload =
  let size_bytes =
    if payload == t.size_memo_payload then t.size_memo_bytes
    else begin
      let s = Wire.Envelope.size ~sender:src_node payload in
      t.size_memo_payload <- payload;
      t.size_memo_bytes <- s;
      s
    end
  in
  let k = Wire.Message.kind_index payload in
  t.wire_frames.(k) <- t.wire_frames.(k) + 1;
  t.wire_bytes.(k) <- t.wire_bytes.(k) + size_bytes;
  let trace =
    if Telemetry.Sink.enabled t.telemetry then trace_of_payload payload
    else Telemetry.Span.no_trace
  in
  Overlay.Net.send t.net ~priority:Overlay.Fair_queue.Control ~trace ~size_bytes
    ~src:src_node ~dst:dst_node ~mode:t.dissemination payload

(* Field-link frames (the device <-> concentrator last mile) never ride
   the overlay — devices are not overlay nodes — but they are real wire
   traffic, so they are charged into the same per-kind ledger at
   exact envelope size as every protocol frame. *)
let charge_field_frame t ~node (frame : Field.Concentrator.frame) =
  let payload =
    match frame with
    | `Advert a -> Field_advert a
    | `Report r -> Field_report r
  in
  let size_bytes = Wire.Envelope.size ~sender:node payload in
  let k = Wire.Message.kind_index payload in
  t.wire_frames.(k) <- t.wire_frames.(k) + 1;
  t.wire_bytes.(k) <- t.wire_bytes.(k) + size_bytes

let wire_traffic t =
  let acc = ref [] in
  for k = Wire.Message.kind_count - 1 downto 0 do
    let frames = t.wire_frames.(k) in
    if frames > 0 then
      acc := (Wire.Message.kind_name k, frames, t.wire_bytes.(k)) :: !acc
  done;
  List.sort
    (fun (ka, _, ba) (kb, _, bb) ->
      match compare bb ba with 0 -> compare ka kb | c -> c)
    !acc

let wire_decode_errors t = t.wire_decode_errors

(* Decode-on-delivery (debug): the simulator transports payloads by
   value, so re-encoding at the receiver is byte-identical to carrying
   the sender's frame. Round-tripping every delivered payload through
   [Wire.Envelope] catches any codec that is not the identity. *)
let debug_check_delivery t ~sender payload =
  if t.cfg.wire_debug then
    match Wire.Envelope.decode (Wire.Envelope.encode ~sender payload) with
    | Ok env
      when env.Wire.Envelope.sender = sender
           && Wire.Message.equal env.Wire.Envelope.message payload ->
      ()
    | Ok _ | Error _ -> t.wire_decode_errors <- t.wire_decode_errors + 1

let submit_to_replica t r update =
  match t.replicas.(r) with
  | Prime_replica p -> Prime.Replica.submit p update
  | Pbft_replica p -> Pbft.Replica.submit p update

let ingest_client_update t r u =
  (* Origin milestone: the first replica to receive the update ends
     the ingress phase (first-writer-wins in the sink). *)
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.update_at_origin t.telemetry ~trace:(trace_of_update u)
      ~now:(Sim.Engine.now t.engine);
  submit_to_replica t r u

(* Protocol-frame dispatch within one epoch: the sender's global node
   id is translated into its rank in that epoch's membership; frames
   from non-members (retired or not-yet-admitted ids) are dropped. *)
let handle_protocol t r ~from ~epoch payload =
  match Hashtbl.find_opt t.rank_maps epoch with
  | None -> bump_stale_epoch t
  | Some (_, rank_of) ->
    let fr =
      if from >= 0 && from < Array.length rank_of then rank_of.(from) else -1
    in
    if fr < 0 then bump_stale_epoch t
    else (
      match (t.replicas.(r), payload) with
      | Prime_replica p, Prime_msg (_, m) -> Prime.Replica.handle p ~from:fr m
      | Pbft_replica p, Pbft_msg (_, m) -> Pbft.Replica.handle p ~from:fr m
      | _, _ -> ())

(* Replica-side reply aggregation (only armed when max_batch > 1):
   signed replies queue per replica and ship grouped by destination,
   amortising the envelope while keeping per-reply signing cost. *)
let flush_replies t r =
  let acc = t.reply_accs.(r) in
  if not (Bft.Batch.is_empty acc) then begin
    let items = Bft.Batch.take_all acc in
    let per_dst = Hashtbl.create 7 in
    let dsts = ref [] in
    List.iter
      (fun (dst, reply) ->
        match Hashtbl.find_opt per_dst dst with
        | Some q -> Queue.add reply q
        | None ->
          let q = Queue.create () in
          Queue.add reply q;
          Hashtbl.replace per_dst dst q;
          dsts := dst :: !dsts)
      items;
    List.iter
      (fun dst ->
        let payload =
          match List.of_seq (Queue.to_seq (Hashtbl.find per_dst dst)) with
          | [ reply ] -> Replica_reply reply
          | rs -> Reply_batch rs
        in
        send_payload t ~src_node:(node_of_replica t r) ~dst_node:dst payload)
      (List.rev !dsts)
  end

let flush_replies_due t r =
  if not (faults t r).Bft.Faults.crashed then
    match Bft.Batch.deadline_us t.reply_accs.(r) with
    | Some d when d <= Sim.Engine.now t.engine -> flush_replies t r
    | Some _ | None -> ()

let enqueue_reply t r ~dst_node reply =
  let acc = t.reply_accs.(r) in
  Bft.Batch.push acc ~now:(Sim.Engine.now t.engine) (dst_node, reply);
  if Bft.Batch.full acc then flush_replies t r
  else if Bft.Batch.length acc = 1 then
    ignore
      (Sim.Engine.schedule
         ~shard:(1 + t.replica_sites.(r))
         t.engine ~delay_us:t.reply_batch.Bft.Batch.max_delay_us
         (fun () -> flush_replies_due t r)
        : Sim.Engine.timer)

(* Reply emission: called from the execute callback of replica [r].
   Shares are signed with the replica's OWN epoch's threshold group —
   across a cutover the boundary batch is acknowledged by the outgoing
   group while post-boundary executions use the new one; client
   endpoints hold both and try each. *)
let emit_replies t r ~exec_index ~(update : Bft.Update.t) effect =
  let state = Scada.Master.state_digest t.masters.(r) in
  let update_digest = Bft.Update.digest update in
  let group = group_for t r in
  let send_reply ~body ~dst_node =
    let digest = Scada.Reply.body_digest ~exec_index ~update_digest ~state ~body in
    let share = Cryptosim.Threshold.sign_share group ~member:r digest in
    let reply =
      {
        Scada.Reply.replica = r;
        update_key = Bft.Update.key update;
        exec_index;
        digest;
        share;
        body;
      }
    in
    (* Charge the threshold-share signing cost before the send (the
       share is per-update even when the envelope is batched). *)
    ignore
      (Sim.Engine.schedule
         ~shard:(1 + t.replica_sites.(r))
         t.engine ~delay_us:t.share_cost_us
         (fun () ->
           if not (faults t r).Bft.Faults.crashed then begin
             if Telemetry.Sink.enabled t.telemetry then
               Telemetry.Sink.update_reply_sent t.telemetry
                 ~trace:(trace_of_update update) ~replica:r
                 ~now:(Sim.Engine.now t.engine);
             if Bft.Batch.is_singleton t.reply_batch then
               send_payload t ~src_node:(node_of_replica t r)
                 ~dst_node (Replica_reply reply)
             else enqueue_reply t r ~dst_node reply
           end)
        : Sim.Engine.timer)
  in
  let client_node = node_of_client t update.Bft.Update.client in
  match effect with
  | Scada.Master.No_effect | Scada.Master.Read_result _ ->
    send_reply ~body:Scada.Reply.Ack ~dst_node:client_node
  | Scada.Master.Device_command { rtu; command } ->
    send_reply ~body:Scada.Reply.Ack ~dst_node:client_node;
    if rtu >= 0 && rtu < t.cfg.substations then begin
      let frame = Scada.Dnp3.encode { Scada.Dnp3.dest = rtu; src = 0xF0; app = command } in
      send_reply
        ~body:(Scada.Reply.Command { rtu; frame })
        ~dst_node:(node_of_client t rtu)
    end

(* ------------------------------------------------------------------ *)
(* Runtime tuning plane: the deployment side of [Control.Knobs].
   Every entry point below is reached ONLY through the validated
   [Knobs.request] path (see [install_actuator]); none of them is
   called when no knob change is issued, so a controller-less run
   never executes any of this code.                                    *)

(* Swap the live dissemination mode for all future sends. Routes cached
   for the previous mode are dropped; recomputation is a pure function
   of the unchanged topology. In-flight frames keep the route captured
   at submit time (the frame carries it), honouring the old mode. *)
let set_dissemination t mode =
  if mode <> t.dissemination then begin
    t.dissemination <- mode;
    Overlay.Net.invalidate_routes t.net
  end

(* Swap the aggregation policy everywhere it is live: the per-replica
   reply accumulators, the Prime pre-order accumulators, and the client
   endpoints (proxies + HMIs). Accumulators whose buffered generation
   became due under the new policy drain immediately; stale generation
   timers re-check their deadline, so nothing flushes twice. (Field
   concentrators keep their construction-time policy: their aggregation
   cadence is scan-synchronous, not delay-driven.) *)
let apply_batch_policy t policy =
  t.reply_batch <- policy;
  Array.iteri
    (fun r acc ->
      Bft.Batch.set_policy acc policy;
      if t.epoch_of.(r) >= 0 && not (faults t r).Bft.Faults.crashed then
        if Bft.Batch.full acc then flush_replies t r else flush_replies_due t r)
    t.reply_accs;
  Array.iter
    (fun instance ->
      match instance with
      | Prime_replica p -> Prime.Replica.set_batch_policy p policy
      | Pbft_replica _ -> ())
    t.replicas;
  Array.iter
    (fun p -> Scada.Endpoint.set_batch_policy (Scada.Proxy.endpoint p) policy)
    t.proxies;
  Array.iter
    (fun h -> Scada.Endpoint.set_batch_policy (Scada.Hmi.endpoint h) policy)
    t.hmis

(* Iterate the current epoch's live Prime instances. *)
let iter_live_prime t f =
  Array.iter
    (fun r ->
      if t.epoch_of.(r) = t.cur_epoch && not (faults t r).Bft.Faults.crashed
      then
        match t.replicas.(r) with
        | Prime_replica p when not (Prime.Replica.halted p) -> f p
        | Prime_replica _ | Pbft_replica _ -> ())
    t.cur_members

let install_actuator t =
  Control.Knobs.set_actuator t.knobs (fun req ->
      match req with
      | Control.Knobs.Set_routing r ->
        set_dissemination t
          (match r with
          | Control.Knobs.Shortest -> Overlay.Net.Shortest
          | Control.Knobs.Kdisjoint k -> Overlay.Net.Redundant k
          | Control.Knobs.Flooding -> Overlay.Net.Flood);
        Ok ()
      | Control.Knobs.Set_max_batch m ->
        let policy =
          if m <= 1 then Bft.Batch.singleton
          else
            Bft.Batch.create
              ~max_delay_us:
                (if t.reply_batch.Bft.Batch.max_delay_us > 0 then
                   t.reply_batch.Bft.Batch.max_delay_us
                 else t.cfg.batch_delay_us)
              ~max_batch:m ()
        in
        apply_batch_policy t policy;
        Ok ()
      | Control.Knobs.Set_batch_delay_us d ->
        if Bft.Batch.is_singleton t.reply_batch then
          Error "batching disabled (max_batch = 1); set max_batch first"
        else begin
          apply_batch_policy t
            (Bft.Batch.create ~max_delay_us:d
               ~max_batch:t.reply_batch.Bft.Batch.max_batch ());
          Ok ()
        end
      | Control.Knobs.Set_recovery_period_us p -> (
        match t.scheduler with
        | None -> Error "proactive recovery not enabled"
        | Some s ->
          Recovery.Scheduler.set_rotation_period s p;
          Ok ())
      | Control.Knobs.Set_tat_threshold_us us -> (
        match t.cfg.protocol with
        | Pbft_protocol -> Error "TAT knobs require the Prime protocol"
        | Prime_protocol ->
          iter_live_prime t (fun p -> Prime.Replica.set_tat_threshold p us);
          Ok ())
      | Control.Knobs.Set_tat_violations k -> (
        match t.cfg.protocol with
        | Pbft_protocol -> Error "TAT knobs require the Prime protocol"
        | Prime_protocol ->
          iter_live_prime t (fun p ->
              Prime.Replica.set_tat_violations_to_suspect p k);
          Ok ())
      | Control.Knobs.Demote_leader -> (
        match t.cfg.protocol with
        | Pbft_protocol -> Error "demotion requires the Prime protocol"
        | Prime_protocol ->
          let demoted = ref 0 in
          iter_live_prime t (fun p ->
              if Prime.Replica.demote_leader p then incr demoted);
          if !demoted > 0 then Ok ()
          else Error "no replica demoted (already suspected or leader)"))

(* One controller tick: rebuild the attribution tables from the shared
   sink, let every local estimator fold in its replica's view, and hand
   the verdict vector to the global controller. *)
let controller_tick t =
  match t.global_ctl with
  | None -> ()
  | Some g ->
    let a = Telemetry.Attribution.build t.telemetry in
    let verdicts =
      Array.map
        (fun l ->
          let r = Control.Local.replica l in
          let tat_alarm =
            match t.replicas.(r) with
            | Prime_replica p -> Prime.Replica.suspected p
            | Pbft_replica _ -> false
          in
          Control.Local.observe l ~tat_alarm a)
        t.locals
    in
    Control.Global.step g ~now_us:(Sim.Engine.now t.engine) verdicts

(* Serialised master state shipped by a state transfer (exec count +
   every known RTU status, via the SCADA codec) — the byte carrier
   whose chunks charge the transfer's bandwidth. *)
let master_blob master =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "exec:%d;" (Scada.Master.applied_count master));
  List.iter
    (fun rtu ->
      match Scada.Master.last_status master ~rtu with
      | None -> ()
      | Some status ->
        Buffer.add_string b (Scada.Op.encode (Scada.Op.Status_report status)))
    (Scada.Master.known_rtus master);
  Buffer.contents b

(* The f+1-vouched state source over [peers]: each offers a (protocol
   snapshot, master state) pair captured atomically (same simulation
   instant), so a consistent pair digest identifies a consistent joint
   state; the newest vouched pair wins. *)
let vouched_source t ~peers =
  {
    Recovery.State_transfer.peers;
    fetch =
      (fun peer ->
        match t.replicas.(peer) with
        | Prime_replica q ->
          Some (Prime.Replica.snapshot q, Scada.Master.clone t.masters.(peer))
        | Pbft_replica _ -> None);
    digest_of =
      (fun (snap, master) ->
        Cryptosim.Digest.combine
          (Prime.Replica.snapshot_digest snap)
          (Scada.Master.snapshot_digest master));
    newer =
      (fun (a, _) (b, _) ->
        a.Prime.Replica.snap_exec_count > b.Prime.Replica.snap_exec_count);
  }

(* State transfer: adopt a state vouched for by f+1 peers of the
   replica's OWN epoch. Used when a replica returns from proactive
   recovery, when a crashed site is restored, and when a replica falls
   behind the quorum's checkpoints. *)
let resync_replica t r =
  if t.epoch_of.(r) < 0 then ()
  else
    match t.replicas.(r) with
    | Pbft_replica _ -> ()
    | Prime_replica prime when not (Prime.Replica.halted prime) ->
      let e = t.epoch_of.(r) in
      let cert_f =
        match Member.Directory.cert_of_epoch t.directory e with
        | Some c -> Member.Cert.f c
        | None -> t.cfg.quorum.Bft.Quorum.f
      in
      let peers_of_epoch =
        match Hashtbl.find_opt t.rank_maps e with
        | Some (members, _) -> Array.to_list members
        | None -> []
      in
      let peers =
        List.filter
          (fun p ->
            p <> r && t.epoch_of.(p) = e && not (faults t p).Bft.Faults.crashed)
          peers_of_epoch
      in
      (match
         Recovery.State_transfer.select ~f:cert_f (vouched_source t ~peers)
       with
      | Recovery.State_transfer.Installed (snap, master) ->
        (* Install only a strictly newer snapshot. Re-installing our own
           (or an equal) state is not a harmless no-op: it discards
           committed-but-unapplied slots and pre-order bodies, and a
           leader doing it re-proposes sequence numbers that other
           replicas may already hold committed — a safety hazard. *)
        if
          snap.Prime.Replica.snap_exec_count
          > Bft.Exec_log.length (Prime.Replica.exec_log prime)
        then begin
          Prime.Replica.install_snapshot prime snap;
          t.masters.(r) <- master;
          (* Charge the transfer's bandwidth: the adopted state ships as
             wire chunks from a live donor, so recovery storms compete
             with protocol traffic for links. *)
          match peers with
          | [] -> ()
          | donor :: _ ->
            List.iter
              (fun chunk ->
                send_payload t ~src_node:(node_of_replica t donor)
                  ~dst_node:(node_of_replica t r) (Transfer_chunk chunk))
              (Recovery.State_transfer.chunk_blob ~xfer_id:r ~chunk_bytes:1024
                 (master_blob master))
        end
      | Recovery.State_transfer.No_quorum _ ->
        (* Rare: peers disagree transiently; rejoin from live traffic and
           catch up through slot requests / checkpoints. *)
        ())
    | Prime_replica _ -> () (* halted: the successor epoch owns catch-up *)

(* ------------------------------------------------------------------ *)
(* Epoch cutover machinery.

   A reconfiguration command travels through the ordered stream like
   any SCADA update. Executing it makes every replica of that epoch:
   halt its instance (the in-progress eligibility batch completes, so
   the halt point — the epoch boundary — lands on the same execution
   index everywhere), derive/adopt the successor certificate with the
   boundary stamped in, and restart as a fresh protocol instance over
   the new membership, carrying application state and the exactly-once
   delivery cursors across. The first replica to switch advances the
   shared directory; later switchers verify their boundary against the
   recorded certificate — any disagreement is latched as a violation. *)

let rec ensure_epoch_state t cert ~announcer =
  let e = Member.Cert.epoch cert in
  if not (Hashtbl.mem t.rank_maps e) then begin
    let members = Array.of_list (Member.Cert.members cert) in
    let rank_of = Array.make t.universe (-1) in
    Array.iteri
      (fun i g -> if g >= 0 && g < t.universe then rank_of.(g) <- i)
      members;
    Hashtbl.replace t.rank_maps e (members, rank_of)
  end;
  if not (List.mem_assoc e t.groups) then
    t.groups <-
      ( e,
        Cryptosim.Threshold.create_group
          ~seed:(Int64.logxor t.cfg.seed (Int64.of_int (e * 0x9E3779B9)))
          ~members:(Member.Cert.members cert)
          ~threshold:(Member.Cert.reply_threshold cert) )
      :: t.groups;
  if e > t.cur_epoch then promote_current t cert ~announcer

and promote_current t cert ~announcer =
  let e = Member.Cert.epoch cert in
  let members, _ = Hashtbl.find t.rank_maps e in
  t.cur_epoch <- e;
  t.cur_members <- members;
  let group = List.assoc e t.groups in
  Array.iter
    (fun p -> Scada.Endpoint.push_group (Scada.Proxy.endpoint p) group)
    t.proxies;
  Array.iter
    (fun h -> Scada.Endpoint.push_group (Scada.Hmi.endpoint h) group)
    t.hmis;
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.set_quorums t.telemetry
      ~order:(Member.Cert.quorum_size cert)
      ~reply:(Member.Cert.reply_threshold cert);
  t.cutovers <-
    (e, Member.Cert.boundary_exec cert, Sim.Engine.now t.engine) :: t.cutovers;
  List.iter (fun f -> f e) t.epoch_listeners;
  (* Gossip the certificate so every daemon (including dark standby
     nodes, once booted) can audit the chain; install is idempotent. *)
  for peer = 0 to t.universe - 1 do
    if peer <> announcer then
      send_payload t ~src_node:(node_of_replica t announcer)
        ~dst_node:(node_of_replica t peer) (Cert_frame cert)
  done;
  arm_reconciler t

and arm_reconciler t =
  if not t.reconciler_armed then begin
    t.reconciler_armed <- true;
    ignore
      (Sim.Engine.periodic t.engine ~interval_us:271_000 (fun () ->
           reconcile t)
        : Sim.Engine.timer)
  end

(* Periodic membership reconciliation (armed at the first cutover, so a
   never-reconfigured system schedules nothing): members of the current
   epoch stuck at an older one (or dark standby ids just admitted) are
   caught up through a chunk-gated join; replicas the current epoch
   dropped are halted and their overlay ids retired. *)
and reconcile t =
  let cert = Member.Directory.current t.directory in
  let e = Member.Cert.epoch cert in
  let now = Sim.Engine.now t.engine in
  match Hashtbl.find_opt t.rank_maps e with
  | None -> ()
  | Some (_, rank_of) ->
    for g = 0 to t.universe - 1 do
      let is_member = rank_of.(g) >= 0 in
      if is_member then begin
        if t.epoch_of.(g) = e || t.pending_reconfig.(g) <> None then
          t.lag_since.(g) <- -1
        else if t.lag_since.(g) < 0 then t.lag_since.(g) <- now
        else if now - t.lag_since.(g) >= 500_000 then begin_join t g
      end
      else begin
        t.lag_since.(g) <- -1;
        if t.epoch_of.(g) >= 0 && t.epoch_of.(g) < e then retire_replica t g
      end
    done

and retire_replica t g =
  halt_instance t g;
  Overlay.Net.retire_node t.net (node_of_replica t g);
  t.epoch_of.(g) <- -1;
  t.pending_reconfig.(g) <- None;
  t.lag_since.(g) <- -1

(* Start a joining replica's catch-up: pick a donor state vouched by
   f+1 members of the NEW epoch, ship it as chunks across the overlay,
   and only install once every chunk has arrived (see [join_session]).
   Lost chunks are re-requested under the bounded-backoff ARQ. *)
and begin_join t g =
  let already =
    Hashtbl.fold
      (fun _ s acc -> acc || ((not s.js_done) && s.js_replica = g))
      t.sessions false
  in
  if not already then begin
    let cert = Member.Directory.current t.directory in
    let e = Member.Cert.epoch cert in
    match Hashtbl.find_opt t.rank_maps e with
    | None -> ()
    | Some (members, _) ->
      halt_instance t g;
      Overlay.Net.unretire_node t.net (node_of_replica t g);
      Overlay.Net.restore_node t.net (node_of_replica t g);
      (faults t g).Bft.Faults.crashed <- false;
      let peers =
        Array.to_list members
        |> List.filter (fun p ->
               p <> g
               && t.epoch_of.(p) = e
               && (not (faults t p).Bft.Faults.crashed)
               && (not (instance_halted t p))
               && Overlay.Net.node_alive t.net (node_of_replica t p))
      in
      (match
         Recovery.State_transfer.select ~f:(Member.Cert.f cert)
           (vouched_source t ~peers)
       with
      | Recovery.State_transfer.No_quorum _ ->
        () (* not enough live vouchers yet; the reconciler retries *)
      | Recovery.State_transfer.Installed (snap, master) -> (
        match peers with
        | [] -> ()
        | donor :: _ ->
          let xfer = t.next_xfer in
          t.next_xfer <- xfer + 1;
          let chunks =
            Array.of_list
              (Recovery.State_transfer.chunk_blob ~xfer_id:xfer
                 ~chunk_bytes:1024 (master_blob master))
          in
          let s =
            {
              js_xfer = xfer;
              js_replica = g;
              js_epoch = e;
              js_donor = donor;
              js_snap = snap;
              js_master = master;
              js_chunks = chunks;
              js_received = Array.make (Array.length chunks) false;
              js_done = false;
            }
          in
          Hashtbl.replace t.sessions xfer s;
          Array.iteri
            (fun i c ->
              send_payload t ~src_node:(node_of_replica t donor)
                ~dst_node:(node_of_replica t g) (Transfer_chunk c);
              arm_chunk_timer t xfer i 0)
            chunks))
  end

and arm_chunk_timer t xfer i attempt =
  match
    Recovery.State_transfer.rerequest_delay_us t.arq ~xfer_id:xfer
      ~chunk_index:i ~attempt
  with
  | None ->
    (* Retry budget exhausted: abandon the session; the reconciler
       starts a fresh one (new xfer id, fresh backoff schedule). *)
    Hashtbl.remove t.sessions xfer
  | Some delay ->
    let shard =
      match Hashtbl.find_opt t.sessions xfer with
      | Some s -> 1 + t.replica_sites.(s.js_replica)
      | None -> 0
    in
    ignore
      (Sim.Engine.schedule ~shard t.engine ~delay_us:delay (fun () ->
           match Hashtbl.find_opt t.sessions xfer with
           | None -> ()
           | Some s ->
             if (not s.js_done) && not s.js_received.(i) then begin
               if Overlay.Net.node_alive t.net (node_of_replica t s.js_donor)
               then
                 send_payload t ~src_node:(node_of_replica t s.js_donor)
                   ~dst_node:(node_of_replica t s.js_replica)
                   (Transfer_chunk s.js_chunks.(i));
               arm_chunk_timer t xfer i (attempt + 1)
             end)
        : Sim.Engine.timer)

and complete_join t s =
  s.js_done <- true;
  Hashtbl.remove t.sessions s.js_xfer;
  (* Install only if the epoch is still current — otherwise the
     reconciler restarts the join against the newer membership. *)
  if Member.Directory.epoch t.directory = s.js_epoch then
    match Member.Directory.cert_of_epoch t.directory s.js_epoch with
    | None -> ()
    | Some cert ->
      t.masters.(s.js_replica) <- s.js_master;
      install_member_instance t s.js_replica ~cert ~snap:s.js_snap

(* Replace replica [r]'s instance with a fresh one for [cert]'s epoch,
   seeded from [snap] (a boundary-carried snapshot on cutover, a donor
   snapshot on join), and start it. *)
and install_member_instance t r ~cert ~snap =
  let e = Member.Cert.epoch cert in
  ensure_epoch_state t cert ~announcer:r;
  let _, rank_of = Hashtbl.find t.rank_maps e in
  if rank_of.(r) < 0 then retire_replica t r
  else begin
    let inst = t.make_member_instance ~cert ~rank:rank_of.(r) ~global:r in
    (match inst with
    | Prime_replica p -> Prime.Replica.install_snapshot p snap
    | Pbft_replica _ -> ());
    t.replicas.(r) <- inst;
    t.epoch_of.(r) <- e;
    t.lag_since.(r) <- -1;
    match inst with
    | Prime_replica p -> Prime.Replica.start p
    | Pbft_replica p -> Pbft.Replica.start p
  end

(* The deferred half of a cutover (scheduled at delay 0 from the
   execute callback, so the boundary batch has fully drained): stamp
   the boundary, advance or verify the directory, and switch. *)
and switch_replica t r =
  match t.pending_reconfig.(r) with
  | None -> ()
  | Some (e, actions) -> (
    t.pending_reconfig.(r) <- None;
    let boundary = Bft.Exec_log.length (exec_log t r) in
    match Member.Directory.cert_of_epoch t.directory e with
    | None ->
      latch_violation t (Printf.sprintf "switch: unknown epoch %d" e)
    | Some prev -> (
      let next_result =
        match Member.Directory.cert_of_epoch t.directory (e + 1) with
        | Some existing ->
          (* A peer already advanced the chain: our independently
             reached boundary must agree with the recorded one. *)
          if Member.Cert.boundary_exec existing = boundary then Ok existing
          else
            Error
              (Printf.sprintf
                 "epoch %d boundary disagreement: replica %d halted at %d, \
                  certificate records %d"
                 (e + 1) r boundary
                 (Member.Cert.boundary_exec existing))
        | None ->
          Member.Directory.advance t.directory actions
            ~signers:(Member.Cert.members prev) ~boundary_exec:boundary
      in
      match next_result with
      | Error msg -> latch_violation t msg
      | Ok cert -> (
        match t.replicas.(r) with
        | Pbft_replica _ -> ()
        | Prime_replica p ->
          (* Carry execution state and delivery cursors across the
             boundary; the pre-order space (cursor, matrix, view) is
             fresh — the new epoch renumbers from scratch. *)
          let old = Prime.Replica.snapshot p in
          let n_new = Member.Cert.n cert in
          let snap =
            {
              old with
              Prime.Replica.snap_cursor = Prime.Matrix.empty_vector ~n:n_new;
              snap_last_applied = 0;
              snap_cum_matrix = Prime.Matrix.empty ~n:n_new;
              snap_view = 0;
            }
          in
          install_member_instance t r ~cert ~snap)))

(* Executing an ordered [Op.Reconfig]: validate it against the
   replica's own epoch certificate (a malformed or inapplicable command
   is a deterministic no-op — every replica rejects it identically),
   then halt and schedule the switch. *)
let note_reconfig t r ~payload =
  match t.cfg.protocol with
  | Pbft_protocol -> () (* reconfiguration requires Prime *)
  | Prime_protocol ->
    if t.pending_reconfig.(r) = None && t.epoch_of.(r) >= 0 then (
      match Member.Reconfig.decode payload with
      | Error _ -> ()
      | Ok actions -> (
        let e = t.epoch_of.(r) in
        match Member.Directory.cert_of_epoch t.directory e with
        | None -> ()
        | Some cert ->
          let in_universe =
            List.for_all
              (function
                | Member.Reconfig.Add_site { members; _ } ->
                  List.for_all (fun m -> m >= 0 && m < t.universe) members
                | Member.Reconfig.Set_resilience _
                | Member.Reconfig.Remove_site _ | Member.Reconfig.Promote _ ->
                  true)
              actions
          in
          if in_universe then (
            (* Dry-run against the epoch's own certificate: boundary
               and signers are stand-ins, only action semantics are
               checked here. *)
            match
              Member.Reconfig.apply cert actions
                ~signers:(Member.Cert.members cert)
                ~boundary_exec:(Member.Cert.boundary_exec cert)
            with
            | Error _ -> ()
            | Ok _ ->
              t.pending_reconfig.(r) <- Some (e, actions);
              halt_instance t r;
              ignore
                (Sim.Engine.schedule ~shard:(1 + t.replica_sites.(r)) t.engine
                   ~delay_us:0 (fun () -> switch_replica t r)
                  : Sim.Engine.timer))))

let execute_of t r exec_index update =
  (* Execution milestone: the reply-quorum-th distinct replica to get
     here fixes the end of the ordering phase (sink-side count). *)
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.update_executed t.telemetry ~trace:(trace_of_update update)
      ~replica:r ~now:(Sim.Engine.now t.engine);
  match Scada.Op.of_update update with
  | Error _ -> ()
  | Ok op ->
    let effect = Scada.Master.apply t.masters.(r) op in
    emit_replies t r ~exec_index ~update effect;
    (match op with
    | Scada.Op.Reconfig { payload } -> note_reconfig t r ~payload
    | Scada.Op.Status_report _ | Scada.Op.Breaker_command _
    | Scada.Op.Tap_command _ | Scada.Op.Hmi_read _ | Scada.Op.Field_report _
    | Scada.Op.Field_write _ ->
      ())

let handle_transfer_chunk t r (c : Recovery.State_transfer.chunk) =
  match Hashtbl.find_opt t.sessions c.Recovery.State_transfer.xfer_id with
  | None ->
    (* Legacy resync carrier (or a stale session): the frames exist to
       charge the transfer's bandwidth; installation was synchronous. *)
    ()
  | Some s ->
    if (not s.js_done) && s.js_replica = r then begin
      let i = c.Recovery.State_transfer.chunk_index in
      if i >= 0 && i < Array.length s.js_received then begin
        s.js_received.(i) <- true;
        if Array.for_all Fun.id s.js_received then complete_join t s
      end
    end

let handle_replica_msg t r ~from payload =
  match payload with
  | Epoch_frame (e, inner) ->
    (* Frames are bound to their sender's epoch: anything not matching
       the receiving instance's epoch is inadmissible. *)
    if t.epoch_of.(r) = e then handle_protocol t r ~from ~epoch:e inner
    else bump_stale_epoch t
  | Prime_msg _ | Pbft_msg _ ->
    (* Bare protocol frames are the genesis-epoch encoding. *)
    if t.epoch_of.(r) = 0 then handle_protocol t r ~from ~epoch:0 payload
    else bump_stale_epoch t
  | Client_update u -> ingest_client_update t r u
  | Client_batch us -> List.iter (ingest_client_update t r) us
  | Transfer_chunk c -> handle_transfer_chunk t r c
  | Cert_frame c -> (
    match Member.Directory.install t.directory c with
    | Ok () | Error _ -> ())
  (* Field-link frames never reach replicas: they terminate at the
     concentrator, which folds them into ordered Field_report ops. *)
  | Replica_reply _ | Reply_batch _ | Field_advert _ | Field_report _ -> ()

(* Replica environment for one (epoch, rank) instance. A protocol
   broadcast hands the same physical message to every recipient;
   memoising the wrapped payload by the inner message's physical
   identity lets [send_payload]'s size memo hit on every recipient
   after the first. Epoch > 0 frames travel inside [Epoch_frame] —
   the genesis epoch keeps the bare (seed-identical) encoding. *)
let env_for t ~epoch ~rank ~(members : int array) wrap =
  let wrap_memo = ref None in
  let wrap_shared msg =
    match !wrap_memo with
    | Some (m, p) when m == msg -> p
    | _ ->
      let inner = wrap msg in
      let p = if epoch > 0 then Epoch_frame (epoch, inner) else inner in
      wrap_memo := Some (msg, p);
      p
  in
  {
    Bft.Env.self = rank;
    replica_count = Array.length members;
    send =
      (fun dst msg ->
        send_payload t ~src_node:members.(rank) ~dst_node:members.(dst)
          (wrap_shared msg));
    now_us = (fun () -> Sim.Engine.now t.engine);
    set_timer =
      (* A replica's protocol timers belong to its site's heap. *)
      (let shard = 1 + t.replica_sites.(members.(rank)) in
       fun delay_us f -> Sim.Engine.schedule ~shard t.engine ~delay_us f);
    trace = (fun _ -> ());
    telemetry = t.telemetry;
  }

(* Client node handler: replies (single or batched) go to the client's
   endpoint; clients ignore every other kind. *)
let set_client_handler t client handle_reply =
  Overlay.Net.set_handler t.net (node_of_client t client) (fun delivery ->
      debug_check_delivery t ~sender:delivery.Overlay.Net.frame_src
        delivery.Overlay.Net.payload;
      match delivery.Overlay.Net.payload with
      | Replica_reply reply -> handle_reply reply
      | Reply_batch rs -> List.iter handle_reply rs
      | Prime_msg _ | Pbft_msg _ | Client_update _ | Client_batch _
      | Transfer_chunk _ | Epoch_frame _ | Cert_frame _ | Field_advert _
      | Field_report _ ->
        ())

let create cfg =
  let n = List.fold_left ( + ) 0 cfg.site_sizes in
  let universe = n + List.fold_left ( + ) 0 cfg.standby_site_sizes in
  if n <> cfg.quorum.Bft.Quorum.n then
    invalid_arg "System.create: site_sizes do not sum to quorum n";
  if cfg.control_centers < 1 || cfg.control_centers > List.length cfg.site_sizes
  then invalid_arg "System.create: bad control_centers";
  if cfg.field_concentrators < 0 then
    invalid_arg "System.create: field_concentrators < 0";
  if cfg.field_scan_interval_us <= 0 then
    invalid_arg "System.create: field_scan_interval_us <= 0";
  if not (cfg.field_loss >= 0. && cfg.field_loss <= 1.) then
    invalid_arg "System.create: field_loss outside [0, 1]";
  let batch_policy =
    if cfg.max_batch <= 1 then Bft.Batch.singleton
    else Bft.Batch.create ~max_delay_us:cfg.batch_delay_us ~max_batch:cfg.max_batch ()
  in
  let topo, site_members = build_topology cfg in
  (* Ownership partition: each replica site (active and standby) is a
     shard; all field devices (substation proxies, HMIs) pool into one
     trailing "field" shard. The engine gets one heap per shard plus
     the control heap ({!Sim.Shard.engine_shards}); the partition never
     affects event order — see the Shard/Engine docs. *)
  let base_sites = List.length cfg.site_sizes + List.length cfg.standby_site_sizes in
  let part =
    Sim.Shard.make ~shards:(base_sites + 1)
      ~owner:(fun node ->
        min (Overlay.Topology.site_of topo node) base_sites)
      ~nodes:(Overlay.Topology.node_count topo)
  in
  let world =
    Sim.World.create ~seed:cfg.seed ~shards:(Sim.Shard.engine_shards part) ()
  in
  Sim.World.set_partition world part;
  let engine = Sim.World.engine world in
  let net = Overlay.Net.create ~per_source_cap:256 ~partition:part engine topo () in
  let sink =
    if cfg.telemetry then begin
      let s = Telemetry.Sink.create ~enabled:true () in
      (* The orderable milestone needs an ordering quorum of pre-order
         body stores; the execution milestone needs the reply (f+1)
         quorum of distinct executions. *)
      Telemetry.Sink.set_quorums s
        ~order:(Bft.Quorum.quorum_size cfg.quorum)
        ~reply:(Bft.Quorum.reply_threshold cfg.quorum);
      Overlay.Net.set_telemetry net s;
      s
    end
    else
      (* A fresh disabled sink per instance, NOT the shared
         [Telemetry.Sink.null]: [set_quorums] below writes to the sink
         even when telemetry is off, and writing through a toplevel
         value would couple (and, across domains, race) otherwise
         independent system instances. *)
      Telemetry.Sink.create ~capacity:1 ~pending_cap:1 ~enabled:false ()
  in
  let group =
    Cryptosim.Threshold.create_group ~seed:cfg.seed
      ~members:(List.init n Fun.id)
      ~threshold:(Bft.Quorum.reply_threshold cfg.quorum)
  in
  let replica_sites = Array.make universe 0 in
  List.iteri
    (fun site members -> List.iter (fun r -> replica_sites.(r) <- site) members)
    site_members;
  let genesis = genesis_cert cfg in
  let directory = Member.Directory.create ~genesis in
  let identity = Array.init n Fun.id in
  let rank_maps = Hashtbl.create 7 in
  let rank_of0 = Array.make universe (-1) in
  Array.iteri (fun i g -> rank_of0.(g) <- i) identity;
  Hashtbl.replace rank_maps 0 (identity, rank_of0);
  let t =
    {
      cfg;
      engine;
      topo;
      net;
      group;
      n;
      universe;
      replicas = [||];
      masters = Array.init universe (fun _ -> Scada.Master.create ());
      proxies = [||];
      hmis = [||];
      concentrators = [||];
      replica_sites;
      hist = Stats.Histogram.create ();
      series = Stats.Timeseries.create ();
      submitted = 0;
      diversity =
        Recovery.Diversity.create ~variants:cfg.diversity_variants ~n
          ~rng:(Sim.Engine.rng engine);
      scheduler = None;
      recovery_listeners = [];
      share_cost_us = Cryptosim.Threshold.default_cost.Cryptosim.Threshold.share_us;
      reply_batch = batch_policy;
      reply_accs = Array.init universe (fun _ -> Bft.Batch.acc batch_policy);
      dissemination = cfg.dissemination;
      knobs = Control.Knobs.create ();
      locals = [||];
      global_ctl = None;
      wire_frames = Array.make Wire.Message.kind_count 0;
      wire_bytes = Array.make Wire.Message.kind_count 0;
      (* A fresh dummy payload: physically distinct from anything ever
         sent, so the first real send always misses the memo. *)
      size_memo_payload =
        Client_update
          (Bft.Update.create ~client:0 ~client_seq:0 ~operation:""
             ~submitted_us:0);
      size_memo_bytes = 0;
      wire_decode_errors = 0;
      telemetry = sink;
      directory;
      epoch_of = Array.init universe (fun r -> if r < n then 0 else -1);
      rank_maps;
      groups = [ (0, group) ];
      cur_epoch = 0;
      cur_members = identity;
      pending_reconfig = Array.make universe None;
      cutovers = [];
      stale_epoch_frames = 0;
      epoch_violation = None;
      sessions = Hashtbl.create 7;
      next_xfer = 1000;
      reconciler_armed = false;
      lag_since = Array.make universe (-1);
      arq = Recovery.State_transfer.default_arq;
      make_member_instance =
        (fun ~cert:_ ~rank:_ ~global:_ ->
          failwith "System: make_member_instance used before create finished");
      epoch_listeners = [];
    }
  in
  (* Derive a TAT bound from the network diameter: twice the worst
     round-trip plus proposal cadence headroom. *)
  let max_one_way =
    List.fold_left
      (fun acc link -> max acc link.Overlay.Topology.latency_us)
      0 (Overlay.Topology.links topo)
  in
  (* The one replica-instance builder, for the genesis epoch and every
     later one: the quorum and membership come from the certificate. A
     Prime replica that provably fell behind the quorum's checkpoints
     asks the deployment for state transfer (deferred one event so the
     transfer does not run inside a message handler). *)
  t.make_member_instance <-
    (fun ~cert ~rank ~global ->
      let epoch = Member.Cert.epoch cert in
      let quorum =
        Bft.Quorum.create ~n:(Member.Cert.n cert) ~f:(Member.Cert.f cert)
          ~k:(Member.Cert.k cert)
      in
      let members, _ = Hashtbl.find t.rank_maps epoch in
      match cfg.protocol with
      | Prime_protocol ->
        let pcfg =
          cfg.tweak_prime
            {
              (Prime.Replica.default_config quorum) with
              Prime.Replica.epoch;
              tat_threshold_us = max 100_000 ((8 * max_one_way) + 60_000);
              batch = batch_policy;
            }
        in
        let p =
          Prime.Replica.create pcfg
            (env_for t ~epoch ~rank ~members (fun m -> Prime_msg (rank, m)))
            ~execute:(execute_of t global)
        in
        Prime.Replica.set_on_fall_behind p (fun () ->
            ignore
              (Sim.Engine.schedule ~shard:(1 + t.replica_sites.(global)) engine
                 ~delay_us:0 (fun () ->
                   if not (faults t global).Bft.Faults.crashed then
                     resync_replica t global)
                : Sim.Engine.timer));
        Prime_replica p
      | Pbft_protocol ->
        let pcfg =
          {
            (Pbft.Replica.default_config quorum) with
            Pbft.Replica.epoch;
            batch = batch_policy;
          }
        in
        Pbft_replica
          (Pbft.Replica.create pcfg
             (env_for t ~epoch ~rank ~members (fun m -> Pbft_msg (rank, m)))
             ~execute:(execute_of t global)));
  (* Pre-provisioned standby replicas exist as inert placeholders: a
     crashed, halted, never-started single-replica instance whose env
     goes nowhere. Admission replaces it wholesale. *)
  let standby_instance () =
    let q1 = Bft.Quorum.create ~n:1 ~f:0 ~k:0 in
    let env =
      {
        Bft.Env.self = 0;
        replica_count = 1;
        send = (fun _ _ -> ());
        now_us = (fun () -> Sim.Engine.now engine);
        set_timer = (fun delay_us f -> Sim.Engine.schedule engine ~delay_us f);
        trace = (fun _ -> ());
        telemetry = Telemetry.Sink.null;
      }
    in
    match cfg.protocol with
    | Prime_protocol ->
      let p =
        Prime.Replica.create (Prime.Replica.default_config q1) env
          ~execute:(fun _ _ -> ())
      in
      Prime.Replica.halt p;
      (Prime.Replica.faults p).Bft.Faults.crashed <- true;
      Prime_replica p
    | Pbft_protocol ->
      let p =
        Pbft.Replica.create (Pbft.Replica.default_config q1) env
          ~execute:(fun _ _ -> ())
      in
      Pbft.Replica.halt p;
      (Pbft.Replica.faults p).Bft.Faults.crashed <- true;
      Pbft_replica p
  in
  t.replicas <-
    Array.init universe (fun r ->
        if r < n then t.make_member_instance ~cert:genesis ~rank:r ~global:r
        else standby_instance ());
  (* Standby nodes stay dark until an epoch admits them. *)
  for r = n to universe - 1 do
    Overlay.Net.kill_node net r
  done;
  (* Net handlers: every replica node in the universe (standby handlers
     exist up front so admission needs no rewiring). *)
  for r = 0 to universe - 1 do
    Overlay.Net.set_handler net r (fun delivery ->
        let from = delivery.Overlay.Net.frame_src in
        debug_check_delivery t ~sender:from delivery.Overlay.Net.payload;
        (* Only replica nodes originate protocol messages; client nodes
           originate Client_update. *)
        handle_replica_msg t r ~from delivery.Overlay.Net.payload)
  done;
  (* Clients. *)
  let record_latency _update ~latency_us =
    let ms = float_of_int latency_us /. 1000. in
    Stats.Histogram.add t.hist ms;
    Stats.Timeseries.add t.series ~time_us:(Sim.Engine.now engine) ms
  in
  (* Client-side origin failover. Each client has a home origin
     (client mod n_cur within the current membership); when the origin
     it is currently using makes no progress for a full retransmission
     timeout, the client suspects it for a while and moves to the next
     member. Retransmissions themselves go to every current member (as
     Prime clients do) and exactly-once delivery collapses the
     duplicates. Origins are tracked by global replica id so suspicion
     survives membership changes. *)
  let clients = cfg.substations + cfg.hmis + cfg.field_concentrators in
  let suspected_until = Array.make_matrix clients universe min_int in
  let current_default = Array.make clients (-1) in
  let default_since = Array.make clients 0 in
  let pick_origin client now =
    let members = t.cur_members in
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
    t.submitted <- t.submitted + 1;
    let now = Sim.Engine.now engine in
    let payload = Client_update u in
    if attempt = 0 then begin
      let origin = pick_origin client now in
      send_payload t ~src_node:(node_of_client t client)
        ~dst_node:(node_of_replica t origin) payload
    end
    else begin
      (* Blame the current origin only once it has had a full timeout
         to prove itself (the timed-out update may predate it). *)
      let cur = pick_origin client now in
      if now - default_since.(client) > cfg.resubmit_timeout_us then begin
        suspected_until.(client).(cur) <- now + (8 * cfg.resubmit_timeout_us);
        ignore (pick_origin client now : int)
      end;
      (* One physical payload for the whole retransmission broadcast. *)
      Array.iter
        (fun r ->
          send_payload t ~src_node:(node_of_client t client)
            ~dst_node:(node_of_replica t r) payload)
        t.cur_members
    end
  in
  (* First-attempt batch flush from an endpoint: one Client_batch frame
     to the chosen origin. A flush holding a single update degrades to
     the legacy frame shape. *)
  let submit_batch_of client (updates : Bft.Update.t list) =
    match updates with
    | [] -> ()
    | [ u ] -> submit_of client ~attempt:0 u
    | updates ->
      t.submitted <- t.submitted + List.length updates;
      let now = Sim.Engine.now engine in
      let origin = pick_origin client now in
      send_payload t ~src_node:(node_of_client t client)
        ~dst_node:(node_of_replica t origin) (Client_batch updates)
  in
  (* Field devices' timers live in the trailing field shard's heap. *)
  let field_shard = base_sites + 1 in
  let proxies =
    Array.init cfg.substations (fun i ->
        let rtu =
          Scada.Rtu.create ~id:i ~breakers:4 ~feeders:2 ~rng:(Sim.Engine.rng engine)
        in
        (* Mixed field-protocol fleet, as in real substations: even
           RTUs speak DNP3, odd ones Modbus (the proxy gateways the
           master's DNP3 commands accordingly). *)
        let field_protocol = if i mod 2 = 0 then `Dnp3 else `Modbus in
        let p =
          Scada.Proxy.create ~field_protocol ~telemetry:sink
            ~batch:batch_policy ~submit_batch:(submit_batch_of i)
            ~shard:field_shard ~engine ~rtu ~client_id:i
            ~poll_interval_us:cfg.poll_interval_us ~group
            ~resubmit_timeout_us:cfg.resubmit_timeout_us
            ~submit:(submit_of i) ()
        in
        Scada.Endpoint.set_on_complete (Scada.Proxy.endpoint p) record_latency;
        set_client_handler t i (Scada.Proxy.handle_reply p);
        p)
  in
  let hmis =
    Array.init cfg.hmis (fun j ->
        let client = cfg.substations + j in
        let h =
          Scada.Hmi.create ~telemetry:sink ~shard:field_shard ~engine
            ~client_id:client ~group
            ~resubmit_timeout_us:cfg.resubmit_timeout_us
            ~submit:(submit_of client) ()
        in
        Scada.Endpoint.set_on_complete (Scada.Hmi.endpoint h) record_latency;
        set_client_handler t client (Scada.Hmi.handle_reply h);
        h)
  in
  (* Device fleet: per-substation concentrators, each an ordinary BFT
     client whose devices' report-by-exception events fold into one
     compact ordered aggregate per scan round — BFT load stays
     independent of fleet size. *)
  let concentrators =
    if cfg.field_concentrators = 0 then [||]
    else begin
      if cfg.field_devices < cfg.field_concentrators then
        invalid_arg "System.create: field_devices < field_concentrators";
      let nc = cfg.field_concentrators in
      let per = cfg.field_devices / nc and rem = cfg.field_devices mod nc in
      let first = ref 0 in
      Array.init nc (fun i ->
          let devices = per + if i < rem then 1 else 0 in
          let first_device = !first in
          first := !first + devices;
          let client = cfg.substations + cfg.hmis + i in
          let config =
            {
              Field.Concentrator.devices;
              scan_interval_us = cfg.field_scan_interval_us;
              (* Stagger the rounds across the interval so the core
                 sees a stream of aggregates, not a thundering herd. *)
              phase_us = i * cfg.field_scan_interval_us / nc;
              write_interval_us = field_write_interval_us;
              keepalive_loss = cfg.field_loss;
            }
          in
          let c =
            Field.Concentrator.create ~telemetry:sink ~batch:batch_policy
              ~submit_batch:(submit_batch_of client) ~shard:field_shard
              ~engine ~id:i ~client_id:client ~first_device
              ~seed:(Sim.Rng.derive ~seed:cfg.seed ~index:(0xF1E1D + i))
              ~group ~resubmit_timeout_us:cfg.resubmit_timeout_us
              ~submit:(submit_of client)
              ~charge:(fun frame ->
                charge_field_frame t ~node:(node_of_client t client) frame)
              ~config ()
          in
          Field.Concentrator.set_on_complete c record_latency;
          set_client_handler t client (Field.Concentrator.handle_reply c);
          c)
    end
  in
  t.proxies <- proxies;
  t.hmis <- hmis;
  t.concentrators <- concentrators;
  (* The tuning plane always exists (knob requests from tests/operator
     probes work on any instance); the controller only when asked. *)
  install_actuator t;
  if cfg.adaptive then begin
    let base_tat =
      match t.replicas.(0) with
      | Prime_replica p -> Prime.Replica.tat_threshold_us p
      | Pbft_replica _ -> 150_000
    in
    t.locals <- Array.init n (fun r -> Control.Local.create ~replica:r ());
    t.global_ctl <-
      Some
        (Control.Global.create
           (Control.Global.default_config ~n ~base_tat_threshold_us:base_tat)
           t.knobs)
  end;
  t

let start t =
  Array.iteri
    (fun r instance ->
      if t.epoch_of.(r) >= 0 then
        match instance with
        | Prime_replica p -> Prime.Replica.start p
        | Pbft_replica p -> Pbft.Replica.start p)
    t.replicas;
  Array.iter Scada.Proxy.start t.proxies;
  Array.iter Scada.Hmi.start t.hmis;
  Array.iter Field.Concentrator.start t.concentrators;
  (* Controller tick: only armed when [cfg.adaptive] — a disabled
     controller adds zero timers, so the trajectory is untouched. *)
  if t.cfg.adaptive then
    ignore
      (Sim.Engine.periodic t.engine ~interval_us:adapt_tick_us (fun () ->
           controller_tick t)
        : Sim.Engine.timer)

let run t ~duration_us =
  Sim.Engine.run t.engine ~until_us:(Sim.Engine.now t.engine + duration_us)

(* ------------------------------------------------------------------ *)
(* Online reconfiguration entry points.                                *)

let submit_reconfig t actions =
  (match t.cfg.protocol with
  | Prime_protocol -> ()
  | Pbft_protocol ->
    invalid_arg "System.submit_reconfig: reconfiguration requires Prime");
  if Array.length t.hmis = 0 then
    invalid_arg "System.submit_reconfig: deployment has no HMI";
  let payload = Member.Reconfig.encode actions in
  ignore
    (Scada.Endpoint.send_op
       (Scada.Hmi.endpoint t.hmis.(0))
       (Scada.Op.Reconfig { payload })
      : Bft.Update.t)

let replicas_in_site t site =
  List.filter
    (fun r -> t.replica_sites.(r) = site)
    (List.init t.universe Fun.id)

(* Boot a site's overlay daemons and processes WITHOUT state transfer:
   used to heal a previously removed site so the reconciler can walk it
   through a certified rejoin (any frames its stale instances emit are
   dropped as stale-epoch traffic — retirement is orthogonal to being
   up). *)
let heal_site_nodes t site =
  List.iter
    (fun r ->
      Overlay.Net.restore_node t.net (node_of_replica t r);
      (faults t r).Bft.Faults.crashed <- false)
    (replicas_in_site t site)

(* ------------------------------------------------------------------ *)
(* Safety check.                                                       *)

let assert_agreement t =
  let correct =
    List.filter
      (fun r ->
        (not (faults t r).Bft.Faults.crashed)
        && not (Bft.Faults.is_byzantine (faults t r)))
      (List.init t.universe Fun.id)
  in
  match correct with
  | [] -> ()
  | first :: rest ->
    let l0 = exec_log t first in
    List.iter
      (fun r ->
        let li = exec_log t r in
        if not (Bft.Exec_log.prefix_equal l0 li) then
          failwith
            (Printf.sprintf "SAFETY VIOLATION: replicas %d and %d diverge" first r);
        if
          Bft.Exec_log.length l0 = Bft.Exec_log.length li
          && Scada.Master.applied_count t.masters.(first)
             = Scada.Master.applied_count t.masters.(r)
          && not
               (Cryptosim.Digest.equal
                  (Scada.Master.state_digest t.masters.(first))
                  (Scada.Master.state_digest t.masters.(r)))
        then
          failwith
            (Printf.sprintf "SAFETY VIOLATION: master state of %d and %d diverge"
               first r))
      rest

(* ------------------------------------------------------------------ *)
(* Proactive recovery.                                                 *)

let on_recovery_event t f =
  t.recovery_listeners <- f :: t.recovery_listeners

let notify_recovery t phase r =
  List.iter (fun f -> f phase r) t.recovery_listeners

let enable_recovery t ~rotation_period_us ~recovery_duration_us =
  (match t.cfg.protocol with
  | Prime_protocol -> ()
  | Pbft_protocol ->
    invalid_arg "System.enable_recovery: recovery requires the Prime protocol");
  let k = t.cfg.quorum.Bft.Quorum.k in
  if k < 1 then invalid_arg "System.enable_recovery: k must be >= 1";
  let on_begin r =
    (faults t r).Bft.Faults.crashed <- true;
    notify_recovery t `Begin r
  in
  let on_complete r =
    (* Clean image: honest behaviour, fresh diversity variant. *)
    Bft.Faults.reset (faults t r);
    ignore (Recovery.Diversity.rejuvenate t.diversity r : int);
    resync_replica t r;
    notify_recovery t `Complete r
  in
  let scheduler =
    Recovery.Scheduler.create ~engine:t.engine
      ~config:
        {
          Recovery.Scheduler.rotation_period_us;
          recovery_duration_us;
          max_concurrent = k;
        }
      ~n:t.n ~on_begin ~on_complete
  in
  t.scheduler <- Some scheduler;
  Recovery.Scheduler.start scheduler;
  scheduler

(* Reactive recovery: every poll interval, each live Prime replica is
   asked which peers it has not heard from; a peer accused by at least
   f+k+1 distinct replicas (more than the faulty + recovering replicas
   could fabricate) is rejuvenated immediately through the proactive
   scheduler's budget. This cleanses silent compromised replicas long
   before their next scheduled rotation. Accusations name protocol
   ranks; they are mapped through the accuser's epoch membership back
   to global replica ids before counting. *)
let enable_reactive_recovery t ~silence_threshold_us ~poll_interval_us =
  let scheduler =
    match t.scheduler with
    | Some s -> s
    | None ->
      invalid_arg
        "System.enable_reactive_recovery: call enable_recovery first"
  in
  let threshold = Bft.Quorum.suspect_threshold t.cfg.quorum in
  (* Grace period: peers have not heard from a replica during its own
     recovery downtime, so accusations are suppressed until it has had
     time to be heard from again. *)
  let completed_at = Array.make t.n (-1_000_000_000) in
  on_recovery_event t (fun phase r ->
      match phase with
      | `Complete -> completed_at.(r) <- Sim.Engine.now t.engine
      | `Begin -> ());
  ignore
    (Sim.Engine.periodic t.engine ~interval_us:poll_interval_us (fun () ->
         let accusations = Array.make t.universe 0 in
         Array.iteri
           (fun r instance ->
             match instance with
             | Prime_replica p ->
               if
                 t.epoch_of.(r) >= 0
                 && (not (faults t r).Bft.Faults.crashed)
                 && not (Prime.Replica.halted p)
               then (
                 match Hashtbl.find_opt t.rank_maps t.epoch_of.(r) with
                 | None -> ()
                 | Some (members, _) ->
                   List.iter
                     (fun j ->
                       let gj = members.(j) in
                       accusations.(gj) <- accusations.(gj) + 1)
                     (Prime.Replica.unresponsive p
                        ~threshold_us:silence_threshold_us))
             | Pbft_replica _ -> ())
           t.replicas;
         for j = 0 to t.n - 1 do
           if
             accusations.(j) >= threshold
             && (not (Recovery.Scheduler.is_recovering scheduler j))
             && Sim.Engine.now t.engine - completed_at.(j)
                > 2 * silence_threshold_us
           then ignore (Recovery.Scheduler.trigger_now scheduler j : bool)
         done)
      : Sim.Engine.timer)

(* ------------------------------------------------------------------ *)
(* Attack / failure injection.                                         *)

let set_leader_delay t ~delay_us =
  let leader = current_leader t in
  (faults t leader).Bft.Faults.proposal_delay_us <- delay_us

let crash_replica t r =
  Overlay.Net.kill_node t.net (node_of_replica t r);
  (faults t r).Bft.Faults.crashed <- true

(* Only same-epoch replicas resynchronise directly; stale-epoch ones
   are walked through a certified rejoin by the reconciler. *)
let restore_replica t r =
  Overlay.Net.restore_node t.net (node_of_replica t r);
  (faults t r).Bft.Faults.crashed <- false;
  if t.epoch_of.(r) = t.cur_epoch then resync_replica t r

let kill_site t site = List.iter (crash_replica t) (replicas_in_site t site)
let restore_site t site = List.iter (restore_replica t) (replicas_in_site t site)

(* Network-level site isolation: the site's overlay daemons go dark
   but the replica processes keep running (the paper's control-center
   disconnection is a network event, not a host crash). On reconnection
   the replicas learn the installed view from peer traffic and catch up
   through batched slot requests — no state transfer needed. *)
let isolate_site t site =
  List.iter
    (fun r -> Overlay.Net.kill_node t.net (node_of_replica t r))
    (replicas_in_site t site)

let reconnect_site t site =
  List.iter
    (fun r -> Overlay.Net.restore_node t.net (node_of_replica t r))
    (replicas_in_site t site)
