type protocol = Prime_protocol | Pbft_protocol

(* The deployment's message union lives in [Wire.Message] so the wire
   codecs can serialise complete frames without a dependency cycle. *)
type payload = Wire.Message.t

open Wire.Message

type config = {
  quorum : Bft.Quorum.t;
  protocol : protocol;
  standby_site_sizes : int list;
  substations : int;
  hmis : int;
  poll_interval_us : int;
  dissemination : Overlay.Net.mode;
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

(* Controller sampling cadence: fixed by the deployment model, not
   configurable. *)
let adapt_tick_us = 250_000

(* One-way link latencies and bandwidths of the modelled deployment:
   intra-site LAN, the east-coast WAN between sites, and each
   substation/HMI link to a control center (WAN bandwidth). *)
let lan_latency_us = 100
let wan_latency_us = Overlay.Topology.east_coast_wan_us
let client_link_latency_us = 2_000
let lan_bandwidth_bps = 125_000_000 (* 1 Gbps *)
let wan_bandwidth_bps = 12_500_000 (* 100 Mbps *)

(* The active replicas spread over four sites, the first two of them
   control centers, by [Config_calc]'s rule. *)
let active_sites = 4
let control_centers = 2

let layout cfg =
  let { Bft.Quorum.n; f; k } = cfg.quorum in
  Config_calc.spread ~f ~k ~n ~sites:active_sites ~control_centers

let site_sizes cfg = List.map snd (layout cfg).Config_calc.sites

let default_config () =
  {
    quorum = Bft.Quorum.create ~n:6 ~f:1 ~k:1;
    protocol = Prime_protocol;
    standby_site_sizes = [];
    substations = 10;
    hmis = 1;
    poll_interval_us = 100_000;
    dissemination = Overlay.Net.Shortest;
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

(* The composition root: the deployment's config, replica table,
   masters, replies, recovery and fault injection. The send path
   ([Send]), the epoch manager ([Epochs]) and the client plane
   ([Clients]) own their own state. *)
type t = {
  cfg : config;
  engine : Sim.Engine.t;
  net : payload Overlay.Net.t;
  send : Send.t;
  epochs : Epochs.t;
  clients : Clients.t;
  n : int; (* genesis active replica count *)
  universe : int; (* active + pre-provisioned standby replicas *)
  mutable replicas : Instance.t array; (* universe-sized *)
  masters : Scada.Master.t array; (* elements replaced on state transfer *)
  replica_sites : int array;
  diversity : Recovery.Diversity.t;
  mutable scheduler : Recovery.Scheduler.t option;
  mutable slot_listeners :
    (replica:Bft.Types.replica ->
    epoch:int ->
    seq:Bft.Types.seqno ->
    digest:Cryptosim.Digest.t ->
    unit)
    list;
  mutable recovery_listeners :
    ([ `Begin | `Complete ] -> Bft.Types.replica -> unit) list;
  share_cost_us : int;
  reply_accs : Scada.Reply.t Bft.Batch.acc array;
  (* --- runtime tuning plane / adaptive controller --- *)
  knobs : Control.Knobs.t;
  mutable locals : Control.Local.t array; (* empty unless cfg.adaptive *)
  mutable global_ctl : Control.Global.t option;
  telemetry : Telemetry.Sink.t;
}

let config t = t.cfg
let engine t = t.engine
let net t = t.net
let knobs t = t.knobs
let dissemination t = Send.mode t.send
let telemetry t = t.telemetry
let replica_count t = t.n
let universe_count t = t.universe
let proxy t i = Clients.proxy t.clients i
let hmi t i = Clients.hmi t.clients i
let concentrator t i = Clients.concentrator t.clients i
let concentrator_count t = Clients.concentrator_count t.clients
let fleet_stats t = Clients.fleet_stats t.clients
let master t r = t.masters.(r)
let latency_histogram t = Clients.latency_histogram t.clients
let latency_series t = Clients.latency_series t.clients
let confirmed_updates t = Stats.Histogram.count (latency_histogram t)
let submitted_updates t = Clients.submitted t.clients
let wire_traffic t = Send.traffic t.send
let wire_decode_errors t = Send.decode_errors t.send
let diversity t = t.diversity
let node_of_replica _t r = r
let node_of_client t c = t.universe + c
let site_of_replica t r = t.replica_sites.(r)
let faults t r = Instance.faults t.replicas.(r)
let crashed t r = (faults t r).Bft.Faults.crashed
let view_of t r = Instance.view t.replicas.(r)
let exec_log t r = Instance.exec_log t.replicas.(r)

(* --- Epoch introspection --- *)

let directory t = Epochs.directory t.epochs
let current_epoch t = Epochs.current_epoch t.epochs
let epoch_of_replica t r = Epochs.epoch_of t.epochs r
let stale_epoch_frames t = Epochs.stale_epoch_frames t.epochs
let cutovers t = Epochs.cutovers t.epochs
let epoch_violation t = Epochs.epoch_violation t.epochs
let on_epoch_change t f = Epochs.on_epoch_change t.epochs f
let on_slot_applied t f = t.slot_listeners <- f :: t.slot_listeners
let epoch_activity t = Epochs.epoch_activity t.epochs

let current_leader t =
  (* Leader of the median view among the current epoch's live members,
     mapped from protocol rank back to a global replica id. *)
  let members = Epochs.members t.epochs in
  let m = Array.length members in
  let views =
    Array.to_list members
    |> List.filter_map (fun r ->
           if epoch_of_replica t r = current_epoch t && not (crashed t r) then
             Some (view_of t r)
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
  let all_sizes = site_sizes cfg @ cfg.standby_site_sizes in
  let universe = List.fold_left ( + ) 0 all_sizes in
  let sites = List.length all_sizes in
  let clients = cfg.substations + cfg.hmis + cfg.field_concentrators in
  let topo =
    Overlay.Topology.multi_site ~nodes:(universe + clients)
      ~site_sizes:all_sizes ~lan_latency_us ~wan_latency_us ~lan_bandwidth_bps
      ~wan_bandwidth_bps ()
  in
  let site_members = site_members all_sizes in
  (* Clients: one node each, own site id, linked to the first node of
     every control-center site. *)
  let cc_gateways =
    List.filteri (fun i _ -> i < control_centers) site_members
    |> List.filter_map (function gw :: _ -> Some gw | [] -> None)
  in
  for c = 0 to clients - 1 do
    let node = universe + c in
    Overlay.Topology.assign_site topo node (sites + c);
    List.iter
      (fun gw ->
        Overlay.Topology.add_link topo ~a:node ~b:gw
          ~latency_us:client_link_latency_us
          ~bandwidth_bps:wan_bandwidth_bps)
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
          else if i < control_centers then Member.Cert.Backup_cc
          else Member.Cert.Data_center
        in
        { Member.Cert.site_id = i; role; members })
      (site_members (site_sizes cfg))
  in
  Member.Cert.genesis ~f:cfg.quorum.Bft.Quorum.f ~k:cfg.quorum.Bft.Quorum.k
    ~sites

(* ------------------------------------------------------------------ *)
(* Replica side: ingress, dispatch, execution and replies.             *)

let ingest_client_update t r u =
  (* Origin milestone: the first replica to receive the update ends
     the ingress phase (first-writer-wins in the sink). *)
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.update_at_origin t.telemetry
      ~trace:(Send.trace_of_update u) ~now:(Sim.Engine.now t.engine);
  Instance.submit t.replicas.(r) u

let handle_replica_msg t r ~from payload =
  match payload with
  | Epoch_frame _ | Prime_msg _ | Pbft_msg _ -> (
    let rank = Epochs.sender_rank t.epochs r ~from payload in
    if rank >= 0 then
      match (t.replicas.(r), payload) with
      | Instance.Prime_replica p, (Prime_msg (_, m) | Epoch_frame (_, Prime_msg (_, m)))
        ->
        Prime.Replica.handle p ~from:rank m
      | Instance.Pbft_replica p, (Pbft_msg (_, m) | Epoch_frame (_, Pbft_msg (_, m))) ->
        Pbft.Replica.handle p ~from:rank m
      | _, _ -> ())
  | Client_update u -> ingest_client_update t r u
  | Client_batch us -> List.iter (ingest_client_update t r) us
  | Transfer_chunk c -> Epochs.handle_transfer_chunk t.epochs r c
  | Cert_frame c -> Epochs.install_cert t.epochs c
  (* Field-link frames never reach replicas: they terminate at the
     concentrator, which folds them into ordered Field_report ops. *)
  | Replica_reply _ | Reply_batch _ | Field_advert _ | Field_report _ -> ()

(* A reply goes to its update's client, a device command to the
   proxy of the RTU it actuates. *)
let reply_dst t (reply : Scada.Reply.t) =
  match reply.Scada.Reply.body with
  | Scada.Reply.Command { rtu; _ } -> node_of_client t rtu
  | Scada.Reply.Ack -> node_of_client t (fst reply.Scada.Reply.update_key)

let send_reply t r reply =
  Send.payload t.send ~src_node:(node_of_replica t r)
    ~dst_node:(reply_dst t reply) (Replica_reply reply)

(* Replica-side reply aggregation: a flush ships one frame per
   destination, in first-appearance order, amortising the envelope
   while keeping per-reply signing cost. A destination with a single
   reply gets the legacy [Replica_reply]. *)
let rec flush_replies t r = function
  | [] -> ()
  | [ reply ] -> send_reply t r reply
  | reply :: _ as replies ->
    let dst_node = reply_dst t reply in
    let mine, rest =
      List.partition (fun x -> reply_dst t x = dst_node) replies
    in
    (match mine with
    | [ one ] -> send_reply t r one
    | mine ->
      Send.payload t.send ~src_node:(node_of_replica t r) ~dst_node
        (Reply_batch mine));
    flush_replies t r rest

(* Reply emission: called from the execute callback of replica [r].
   Shares are signed with the replica's OWN epoch's threshold group —
   across a cutover the boundary batch is acknowledged by the outgoing
   group while post-boundary executions use the new one; client
   endpoints hold both and try each. *)
let emit_replies t r ~exec_index ~(update : Bft.Update.t) effect =
  let state = Scada.Master.state_digest t.masters.(r) in
  let update_digest = Bft.Update.digest update in
  let group = Epochs.group_for t.epochs r in
  let sign_and_send body =
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
           if not (crashed t r) then begin
             if Telemetry.Sink.enabled t.telemetry then
               Telemetry.Sink.update_reply_sent t.telemetry
                 ~trace:(Send.trace_of_update update) ~replica:r
                 ~now:(Sim.Engine.now t.engine);
             match
               Bft.Batch.add t.reply_accs.(r) ~now:(Sim.Engine.now t.engine)
                 reply
             with
             | Bft.Batch.Solo -> send_reply t r reply
             | Bft.Batch.Flush replies -> flush_replies t r replies
             | Bft.Batch.Arm delay_us ->
               ignore
                 (Sim.Engine.schedule
                    ~shard:(1 + t.replica_sites.(r))
                    t.engine ~delay_us
                    (fun () ->
                      if not (crashed t r) then
                        flush_replies t r
                          (Bft.Batch.due t.reply_accs.(r)
                             ~now:(Sim.Engine.now t.engine)))
                   : Sim.Engine.timer)
             | Bft.Batch.Wait -> ()
           end)
        : Sim.Engine.timer)
  in
  match effect with
  | Scada.Master.No_effect | Scada.Master.Read_result _ ->
    sign_and_send Scada.Reply.Ack
  | Scada.Master.Device_command { rtu; command } ->
    sign_and_send Scada.Reply.Ack;
    if rtu >= 0 && rtu < t.cfg.substations then begin
      let frame = Scada.Dnp3.encode { Scada.Dnp3.dest = rtu; src = 0xF0; app = command } in
      sign_and_send (Scada.Reply.Command { rtu; frame })
    end

let execute_of t r exec_index update =
  (* Execution milestone: the reply-quorum-th distinct replica to get
     here fixes the end of the ordering phase (sink-side count). *)
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.update_executed t.telemetry
      ~trace:(Send.trace_of_update update) ~replica:r
      ~now:(Sim.Engine.now t.engine);
  match Scada.Op.of_update update with
  | Error _ -> ()
  | Ok op ->
    let effect = Scada.Master.apply t.masters.(r) op in
    emit_replies t r ~exec_index ~update effect;
    (match (op, t.cfg.protocol) with
    | Scada.Op.Reconfig { payload }, Prime_protocol ->
      Epochs.note_reconfig t.epochs r ~payload
    | Scada.Op.Reconfig _, Pbft_protocol (* reconfiguration requires Prime *)
    | ( ( Scada.Op.Status_report _ | Scada.Op.Breaker_command _
        | Scada.Op.Tap_command _ | Scada.Op.Hmi_read _ | Scada.Op.Field_report _
        | Scada.Op.Field_write _ ),
        _ ) ->
      ())

(* Replica environment for one (epoch, rank) instance. A protocol
   broadcast hands the same physical message to every recipient;
   memoising the wrapped payload by the inner message's physical
   identity lets [Send.payload]'s size memo hit on every recipient
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
        Send.payload t.send ~src_node:members.(rank) ~dst_node:members.(dst)
          (wrap_shared msg));
    now_us = (fun () -> Sim.Engine.now t.engine);
    set_timer =
      (* A replica's protocol timers belong to its site's heap. *)
      (let shard = 1 + t.replica_sites.(members.(rank)) in
       fun delay_us f -> Sim.Engine.schedule ~shard t.engine ~delay_us f);
    telemetry = t.telemetry;
  }

(* The one replica-instance builder, for the genesis epoch and every
   later one: the quorum and membership come from the certificate. A
   Prime replica that provably fell behind the quorum's checkpoints
   asks the deployment for state transfer (deferred one event so the
   transfer does not run inside a message handler). Prime batches
   under the construction-time policy [batch]; its TAT bound is derived
   from the network diameter [max_one_way]: twice the worst round-trip
   plus proposal cadence headroom. *)
let member_instance t ~batch ~max_one_way ~cert ~members ~rank ~global =
  let epoch = Member.Cert.epoch cert in
  let quorum =
    Bft.Quorum.create ~n:(Member.Cert.n cert) ~f:(Member.Cert.f cert)
      ~k:(Member.Cert.k cert)
  in
  match t.cfg.protocol with
  | Prime_protocol ->
    let pcfg =
      t.cfg.tweak_prime
        {
          (Prime.Replica.default_config quorum) with
          Prime.Replica.epoch;
          tat_threshold_us = max 100_000 ((8 * max_one_way) + 60_000);
          batch;
        }
    in
    let p =
      Prime.Replica.create pcfg
        (env_for t ~epoch ~rank ~members (fun m -> Prime_msg (rank, m)))
        ~execute:(execute_of t global)
    in
    Prime.Replica.set_on_fall_behind p (fun () ->
        ignore
          (Sim.Engine.schedule ~shard:(1 + t.replica_sites.(global)) t.engine
             ~delay_us:0 (fun () ->
               if not (crashed t global) then Epochs.resync t.epochs global)
            : Sim.Engine.timer));
    Prime.Replica.set_on_apply p (fun seq digest ->
        List.iter (fun f -> f ~replica:global ~epoch ~seq ~digest) t.slot_listeners);
    Instance.Prime_replica p
  | Pbft_protocol ->
    let pcfg = { (Pbft.Replica.default_config quorum) with Pbft.Replica.epoch } in
    Instance.Pbft_replica
      (Pbft.Replica.create pcfg
         (env_for t ~epoch ~rank ~members (fun m -> Pbft_msg (rank, m)))
         ~execute:(execute_of t global))

(* Pre-provisioned standby replicas exist as inert placeholders: a
   crashed, halted, never-started single-replica instance whose env
   goes nowhere. Admission replaces it wholesale. *)
let standby_instance t =
  let q1 = Bft.Quorum.create ~n:1 ~f:0 ~k:0 in
  let env =
    {
      Bft.Env.self = 0;
      replica_count = 1;
      send = (fun _ _ -> ());
      now_us = (fun () -> Sim.Engine.now t.engine);
      set_timer = (fun delay_us f -> Sim.Engine.schedule t.engine ~delay_us f);
      telemetry = Telemetry.Sink.null;
    }
  in
  let inst =
    match t.cfg.protocol with
    | Prime_protocol ->
      Instance.Prime_replica
        (Prime.Replica.create (Prime.Replica.default_config q1) env
           ~execute:(fun _ _ -> ()))
    | Pbft_protocol ->
      Instance.Pbft_replica
        (Pbft.Replica.create (Pbft.Replica.default_config q1) env
           ~execute:(fun _ _ -> ()))
  in
  Instance.halt inst;
  (Instance.faults inst).Bft.Faults.crashed <- true;
  inst

(* ------------------------------------------------------------------ *)
(* Runtime tuning plane: the deployment side of [Control.Knobs].
   Every entry point below is reached ONLY through the validated
   [Knobs.request] path (see [install_actuator]); none of them is
   called when no knob change is issued, so a controller-less run
   never executes any of this code.                                    *)

(* Iterate the current epoch's live Prime instances. *)
let iter_live_prime t f =
  Array.iter
    (fun r ->
      if epoch_of_replica t r = current_epoch t && not (crashed t r) then
        match t.replicas.(r) with
        | Instance.Prime_replica p when not (Prime.Replica.halted p) -> f p
        | Instance.Prime_replica _ | Instance.Pbft_replica _ -> ())
    (Epochs.members t.epochs)

let install_actuator t =
  Control.Knobs.set_actuator t.knobs (fun req ->
      match req with
      | Control.Knobs.Set_routing r ->
        Send.set_mode t.send
          (match r with
          | Control.Knobs.Shortest -> Overlay.Net.Shortest
          | Control.Knobs.Kdisjoint k -> Overlay.Net.Redundant k
          | Control.Knobs.Flooding -> Overlay.Net.Flood);
        Ok ()
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
            | Instance.Prime_replica p -> Prime.Replica.suspected p
            | Instance.Pbft_replica _ -> false
          in
          Control.Local.observe l ~tat_alarm a)
        t.locals
    in
    Control.Global.step g ~now_us:(Sim.Engine.now t.engine) verdicts

(* ------------------------------------------------------------------ *)
(* Creation.                                                           *)

let validate cfg =
  let fail field = invalid_arg ("System.create: " ^ field) in
  let layout = layout cfg in
  if
    List.exists (fun (_, s) -> s = 0) layout.Config_calc.sites
    || not (Config_calc.tolerates_site_loss layout)
  then fail "quorum does not fill four sites or survive losing one";
  if List.exists (fun s -> s < 0) cfg.standby_site_sizes then
    fail "standby_site_sizes has a negative entry";
  if
    List.fold_left ( + ) cfg.quorum.Bft.Quorum.n cfg.standby_site_sizes
    > Bft.Quorum.max_n
  then fail "more than 62 active plus standby replicas";
  if cfg.substations < 0 then fail "substations < 0";
  if cfg.hmis < 0 then fail "hmis < 0";
  if cfg.poll_interval_us <= 0 then fail "poll_interval_us <= 0";
  if cfg.resubmit_timeout_us <= 0 then fail "resubmit_timeout_us <= 0";
  if cfg.diversity_variants < 1 then fail "diversity_variants < 1";
  if cfg.max_batch < 1 then fail "max_batch < 1";
  if cfg.batch_delay_us < 0 then fail "batch_delay_us < 0";
  if cfg.field_concentrators < 0 then fail "field_concentrators < 0";
  if cfg.field_concentrators > 0 && cfg.field_devices < cfg.field_concentrators
  then fail "field_devices < field_concentrators";
  if cfg.field_scan_interval_us <= 0 then fail "field_scan_interval_us <= 0";
  if not (cfg.field_loss >= 0. && cfg.field_loss <= 1.) then
    fail "field_loss outside [0, 1]";
  if cfg.adaptive && not cfg.telemetry then fail "adaptive without telemetry"

let create cfg =
  validate cfg;
  let n = cfg.quorum.Bft.Quorum.n in
  let universe = n + List.fold_left ( + ) 0 cfg.standby_site_sizes in
  let batch_policy =
    if cfg.max_batch = 1 then Bft.Batch.singleton
    else Bft.Batch.create ~max_delay_us:cfg.batch_delay_us ~max_batch:cfg.max_batch ()
  in
  let topo, site_members = build_topology cfg in
  (* Ownership partition: each replica site (active and standby) is a
     shard; all field devices (substation proxies, HMIs) pool into one
     trailing "field" shard. The engine attributes events to one tag
     per shard plus the control tag ({!Sim.Shard.engine_shards}); the
     partition never affects event order — see the Shard/Engine docs. *)
  let base_sites = active_sites + List.length cfg.standby_site_sizes in
  let part =
    Sim.Shard.make ~shards:(base_sites + 1)
      ~owner:(fun node ->
        min (Overlay.Topology.site_of topo node) base_sites)
      ~nodes:(Overlay.Topology.node_count topo)
  in
  let engine =
    Sim.Engine.create ~seed:cfg.seed ~shards:(Sim.Shard.engine_shards part) ()
  in
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
  let send =
    Send.create net ~telemetry:sink ~mode:cfg.dissemination
      ~wire_debug:cfg.wire_debug
  in
  let diversity =
    Recovery.Diversity.create ~variants:cfg.diversity_variants ~n
      ~rng:(Sim.Engine.rng engine)
  in
  let masters = Array.init universe (fun _ -> Scada.Master.create ()) in
  let max_one_way =
    List.fold_left
      (fun acc link -> max acc link.Overlay.Topology.latency_us)
      0 (Overlay.Topology.links topo)
  in
  (* [Epochs] reaches the replica table and the instance builder only
     through these operations; they first run once [create] has
     returned, so they reach the finished [t] through [self]. *)
  let rec self =
    lazy
      (let epochs =
         Epochs.create ~engine ~net ~send ~telemetry:sink ~seed:cfg.seed
           ~universe ~genesis ~group
           ~shard_of:(fun r -> 1 + replica_sites.(r))
           ~instance:(fun r -> (Lazy.force self).replicas.(r))
           ~set_instance:(fun r i -> (Lazy.force self).replicas.(r) <- i)
           ~master:(Array.get masters) ~set_master:(Array.set masters)
           ~build:(fun ~cert ~members ~rank ~global ->
             member_instance (Lazy.force self) ~batch:batch_policy ~max_one_way
               ~cert ~members ~rank ~global)
       in
       let clients =
         (* Field devices' timers live in the trailing field shard. *)
         Clients.create ~engine ~net ~send ~epochs ~telemetry:sink ~group
           ~batch:batch_policy ~shard:(base_sites + 1) ~universe ~seed:cfg.seed
           ~substations:cfg.substations ~hmis:cfg.hmis
           ~concentrators:cfg.field_concentrators ~devices:cfg.field_devices
           ~scan_interval_us:cfg.field_scan_interval_us ~loss:cfg.field_loss
           ~poll_interval_us:cfg.poll_interval_us
           ~resubmit_timeout_us:cfg.resubmit_timeout_us
       in
       {
         cfg;
         engine;
         net;
         send;
         epochs;
         clients;
         n;
         universe;
         replicas = [||];
         masters;
         replica_sites;
         diversity;
         scheduler = None;
         slot_listeners = [];
         recovery_listeners = [];
         share_cost_us = Cryptosim.Threshold.default_cost.Cryptosim.Threshold.share_us;
         reply_accs = Array.init universe (fun _ -> Bft.Batch.acc batch_policy);
         knobs = Control.Knobs.create ();
         locals = [||];
         global_ctl = None;
         telemetry = sink;
       })
  in
  let t = Lazy.force self in
  let members = Epochs.members t.epochs in
  t.replicas <-
    Array.init universe (fun r ->
        if r < n then
          member_instance t ~batch:batch_policy ~max_one_way ~cert:genesis
            ~members ~rank:r ~global:r
        else standby_instance t);
  (* Standby nodes stay dark until an epoch admits them. *)
  for r = n to universe - 1 do
    Overlay.Net.kill_node net r
  done;
  (* Net handlers: every replica node in the universe (standby handlers
     exist up front so admission needs no rewiring). *)
  for r = 0 to universe - 1 do
    Overlay.Net.set_handler net r (fun delivery ->
        let from = delivery.Overlay.Net.frame_src in
        Send.check_delivery send ~sender:from delivery.Overlay.Net.payload;
        (* Only replica nodes originate protocol messages; client nodes
           originate Client_update. *)
        handle_replica_msg t r ~from delivery.Overlay.Net.payload)
  done;
  (* The tuning plane always exists (knob requests from tests/operator
     probes work on any instance); the controller only when asked. *)
  install_actuator t;
  if cfg.adaptive then begin
    let base_tat =
      match t.replicas.(0) with
      | Instance.Prime_replica p -> Prime.Replica.tat_threshold_us p
      | Instance.Pbft_replica _ -> 150_000
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
    (fun r instance -> if epoch_of_replica t r >= 0 then Instance.start instance)
    t.replicas;
  Clients.start t.clients;
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
  if Clients.hmi_count t.clients = 0 then
    invalid_arg "System.submit_reconfig: deployment has no HMI";
  let payload = Member.Reconfig.encode actions in
  ignore
    (Scada.Endpoint.send_op
       (Scada.Hmi.endpoint (hmi t 0))
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
      (fun r -> (not (crashed t r)) && not (Bft.Faults.is_byzantine (faults t r)))
      (List.init t.universe Fun.id)
  in
  match
    Oracle.Verdict.combine
      [
        Oracle.Agreement.check_logs
          (List.map (fun r -> (r, exec_log t r)) correct);
        Oracle.Agreement.check_states
          (List.map
             (fun r ->
               ( r,
                 Scada.Master.applied_count t.masters.(r),
                 Scada.Master.state_digest t.masters.(r) ))
             correct);
      ]
  with
  | Oracle.Verdict.Pass -> ()
  | Oracle.Verdict.Fail msg -> failwith ("SAFETY VIOLATION: " ^ msg)

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
    Epochs.resync t.epochs r;
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
             | Instance.Prime_replica p ->
               if
                 epoch_of_replica t r >= 0
                 && (not (crashed t r))
                 && not (Prime.Replica.halted p)
               then (
                 match Epochs.members_of_epoch t.epochs (epoch_of_replica t r) with
                 | None -> ()
                 | Some members ->
                   List.iter
                     (fun j ->
                       let gj = members.(j) in
                       accusations.(gj) <- accusations.(gj) + 1)
                     (Prime.Replica.unresponsive p
                        ~threshold_us:silence_threshold_us))
             | Instance.Pbft_replica _ -> ())
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
  if epoch_of_replica t r = current_epoch t then Epochs.resync t.epochs r

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
