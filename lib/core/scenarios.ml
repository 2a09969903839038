type latency_result = {
  hist : Stats.Histogram.t;
  series : Stats.Timeseries.t;
  submitted : int;
  confirmed : int;
  max_view : int;
  duration_us : int;
}

let max_view sys =
  let n = System.replica_count sys in
  let best = ref 0 in
  for r = 0 to n - 1 do
    if not (System.faults sys r).Bft.Faults.crashed then
      best := max !best (System.view_of sys r)
  done;
  !best

let result_of sys ~duration_us =
  {
    hist = System.latency_histogram sys;
    series = System.latency_series sys;
    submitted = System.submitted_updates sys;
    confirmed = System.confirmed_updates sys;
    max_view = max_view sys;
    duration_us;
  }

let finish sys ~duration_us =
  System.assert_agreement sys;
  (sys, result_of sys ~duration_us)

let fault_free ?config ~duration_us () =
  let cfg =
    match config with Some c -> c | None -> System.default_config ()
  in
  let sys = System.create cfg in
  System.start sys;
  System.run sys ~duration_us;
  finish sys ~duration_us

let leader_attack ?(tweak = fun c -> c) ~protocol ~delay_us ~attack_from_us
    ~duration_us () =
  let cfg = tweak { (System.default_config ()) with System.protocol } in
  let sys = System.create cfg in
  System.start sys;
  ignore
    (Sim.Engine.schedule_at (System.engine sys) ~time_us:attack_from_us
       (fun () -> System.set_leader_delay sys ~delay_us)
      : Sim.Engine.timer);
  System.run sys ~duration_us;
  (* Agreement must hold among correct replicas; the attacked leader is
     Byzantine and excluded by [assert_agreement]. *)
  finish sys ~duration_us

let proactive_recovery ~rotation_period_us ~recovery_duration_us ~duration_us
    () =
  let sys = System.create (System.default_config ()) in
  let events = ref [] in
  System.on_recovery_event sys (fun phase r ->
      events := (Sim.Engine.now (System.engine sys), phase, r) :: !events);
  System.start sys;
  ignore
    (System.enable_recovery sys ~rotation_period_us ~recovery_duration_us
      : Recovery.Scheduler.t);
  System.run sys ~duration_us;
  System.assert_agreement sys;
  (sys, result_of sys ~duration_us, List.rev !events)

(* The attacker congests the PRIMARY inter-site links (those joining
   the first daemon of each site) — an undetected delay attack: links
   stay up, so shortest-path routing keeps trusting their advertised
   latency. The redundant second-node links and the client access
   links stay clean, which is exactly what redundant/flooding
   dissemination can exploit and single-path routing cannot. *)
let congest_primary_wan sys factor =
  let net = System.net sys in
  let topo = Overlay.Net.topology net in
  let n = System.replica_count sys in
  let first_of_site = Hashtbl.create 7 in
  for r = 0 to n - 1 do
    let s = Overlay.Topology.site_of topo r in
    if not (Hashtbl.mem first_of_site s) then Hashtbl.replace first_of_site s r
  done;
  let is_gateway node =
    node < n
    && Hashtbl.find_opt first_of_site (Overlay.Topology.site_of topo node)
       = Some node
  in
  List.iter
    (fun link ->
      let a = link.Overlay.Topology.endpoint_a
      and b = link.Overlay.Topology.endpoint_b in
      if
        is_gateway a && is_gateway b
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_latency_factor net a b factor)
    (Overlay.Topology.links topo)

let link_degradation ?(tweak = fun c -> c) ~mode ~factor ~attack_from_us
    ~duration_us () =
  let cfg = tweak { (System.default_config ()) with System.dissemination = mode } in
  let sys = System.create cfg in
  System.start sys;
  ignore
    (Sim.Engine.schedule_at (System.engine sys) ~time_us:attack_from_us
       (fun () -> congest_primary_wan sys factor)
      : Sim.Engine.timer);
  System.run sys ~duration_us;
  finish sys ~duration_us

let packet_loss ?(tweak = fun c -> c) ~mode ~loss ~duration_us () =
  let cfg = tweak { (System.default_config ()) with System.dissemination = mode } in
  let sys = System.create cfg in
  let net = System.net sys in
  let topo = Overlay.Net.topology net in
  let n = System.replica_count sys in
  List.iter
    (fun link ->
      let a = link.Overlay.Topology.endpoint_a
      and b = link.Overlay.Topology.endpoint_b in
      if
        a < n && b < n
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_loss_probability net a b loss)
    (Overlay.Topology.links topo);
  System.start sys;
  System.run sys ~duration_us;
  finish sys ~duration_us

let site_failure ~site ~fail_at_us ~restore_at_us ~duration_us () =
  let sys = System.create (System.default_config ()) in
  System.start sys;
  ignore
    (Sim.Engine.schedule_at (System.engine sys) ~time_us:fail_at_us (fun () ->
         System.kill_site sys site)
      : Sim.Engine.timer);
  (match restore_at_us with
  | Some time_us ->
    ignore
      (Sim.Engine.schedule_at (System.engine sys) ~time_us (fun () ->
           System.restore_site sys site)
        : Sim.Engine.timer)
  | None -> ());
  System.run sys ~duration_us;
  finish sys ~duration_us

let throughput ?(tweak = fun c -> c) ?(max_batch = 1) ~substations
    ~poll_interval_us ~duration_us () =
  let cfg =
    tweak
      {
        (System.default_config ()) with
        System.substations;
        poll_interval_us;
        max_batch;
      }
  in
  let sys = System.create cfg in
  System.start sys;
  System.run sys ~duration_us;
  finish sys ~duration_us

type activity_sample = {
  at_us : int;
  per_epoch : (int * int * int) list; (* (epoch, live, quorum_size) *)
}

type reconfig_result = {
  base : latency_result;
  cutovers : (int * int * int) list;
  final_epoch : int;
  final_n : int;
  stale_frames : int;
  violation : string option;
  max_confirm_gap_us : int;
  activity : activity_sample list;
}

(* Longest silence between consecutive confirmations inside
   [from_us, until_us) — the downtime metric of the reconfiguration
   timeline. Window edges count as virtual confirmations so a silent
   tail is charged too. *)
let max_confirm_gap series ~from_us ~until_us =
  let times =
    List.filter_map
      (fun (time_us, _) ->
        if time_us >= from_us && time_us < until_us then Some time_us else None)
      (Stats.Timeseries.to_list series)
  in
  let rec gaps acc prev = function
    | [] -> max acc (until_us - prev)
    | time :: rest -> gaps (max acc (time - prev)) time rest
  in
  gaps 0 from_us times

(* Experiment E11: online reconfiguration through the ordered stream.
   Under continuous polling load, the active control-center site is
   destroyed; a reconfiguration promotes the backup and drops the dead
   site (epoch 1, shrinking resilience to keep n >= 3f+2k+1); the dead
   site's hardware is healed and re-admitted as a backup (epoch 2,
   restoring f=1,k=1); finally a brand-new pre-provisioned data center
   is admitted, growing the deployment to n = 3f+2k+1 = 8 for k = 2
   (epoch 3). Every membership change takes effect at a deterministic
   epoch-boundary execution count. *)
let reconfiguration ~duration_us () =
  let cfg =
    { (System.default_config ()) with System.standby_site_sizes = [ 2 ] }
  in
  let sys = System.create cfg in
  let engine = System.engine sys in
  let at time_us f =
    ignore (Sim.Engine.schedule_at engine ~time_us f : Sim.Engine.timer)
  in
  let samples = ref [] in
  ignore
    (Sim.Engine.periodic engine ~interval_us:200_000 (fun () ->
         let dir = System.directory sys in
         let per_epoch =
           List.map
             (fun (e, live) ->
               let q =
                 match Member.Directory.cert_of_epoch dir e with
                 | Some c -> Member.Cert.quorum_size c
                 | None -> max_int
               in
               (e, live, q))
             (System.epoch_activity sys)
         in
         samples :=
           { at_us = Sim.Engine.now engine; per_epoch } :: !samples)
      : Sim.Engine.timer);
  System.start sys;
  (* T1: the active control center dies under load. *)
  at 10_000_000 (fun () -> System.kill_site sys 0);
  (* T2: failover — promote the backup, drop the dead site. *)
  at 14_000_000 (fun () ->
      System.submit_reconfig sys
        [
          Member.Reconfig.Set_resilience { f = 1; k = 0 };
          Member.Reconfig.Promote 1;
          Member.Reconfig.Remove_site 0;
        ]);
  (* T3: the destroyed site's hardware is rebuilt (nodes boot, no state). *)
  at 22_000_000 (fun () -> System.heal_site_nodes sys 0);
  (* T3b: re-admit the healed site as a backup control center. *)
  at 26_000_000 (fun () ->
      System.submit_reconfig sys
        [
          Member.Reconfig.Set_resilience { f = 1; k = 1 };
          Member.Reconfig.Add_site
            { site_id = 0; role = Member.Cert.Backup_cc; members = [ 0; 1 ] };
        ]);
  (* T4: grow — admit the pre-provisioned standby data center,
     raising the recovery budget to k = 2 (n = 3f+2k+1 = 8). *)
  at 38_000_000 (fun () ->
      System.submit_reconfig sys
        [
          Member.Reconfig.Set_resilience { f = 1; k = 2 };
          Member.Reconfig.Add_site
            { site_id = 4; role = Member.Cert.Data_center; members = [ 6; 7 ] };
        ]);
  System.run sys ~duration_us;
  System.assert_agreement sys;
  let base = result_of sys ~duration_us in
  let final_cert = Member.Directory.current (System.directory sys) in
  ( sys,
    {
      base;
      cutovers = System.cutovers sys;
      final_epoch = System.current_epoch sys;
      final_n = Member.Cert.n final_cert;
      stale_frames = System.stale_epoch_frames sys;
      violation = System.epoch_violation sys;
      max_confirm_gap_us =
        max_confirm_gap base.series ~from_us:10_000_000 ~until_us:duration_us;
      activity = List.rev !samples;
    } )

type campaign_result = {
  max_simultaneous_compromised : int;
  total_compromises : int;
  exploits_developed : int;
  time_above_f_us : int;
  final_compromised : int;
  mean_held_us : int;
}

let intrusion_campaign ?(reactive_on = false) ~diversity_on ~recovery_on
    ~duration_us () =
  let base = System.default_config () in
  let cfg =
    {
      base with
      System.diversity_variants = (if diversity_on then 8 else 1);
      (* Lighter polling and slower protocol cadences: the campaign runs
         for hours of virtual time and the metric is compromise counts,
         not latency. *)
      substations = 2;
      poll_interval_us = 1_000_000;
      tweak_prime =
        (fun c ->
          {
            c with
            Prime.Replica.aru_interval_us = 100_000;
            proposal_interval_us = 200_000;
            watchdog_interval_us = 500_000;
            tat_threshold_us = 2_000_000;
          });
    }
  in
  let sys = System.create cfg in
  System.start sys;
  let engine = System.engine sys in
  let f = cfg.System.quorum.Bft.Quorum.f in
  let compromised_since = Array.make (System.replica_count sys) 0 in
  let held_total = ref 0 and held_count = ref 0 in
  let campaign =
    Attack.Campaign.create ~engine ~rng:(Sim.Engine.rng engine)
      ~diversity:(System.diversity sys)
      ~config:
        {
          (* The paper's defence premise: rejuvenation outpaces exploit
             development. The attacker needs 2 h per exploit; the full
             rotation takes 1 h, so no foothold survives long enough to
             combine with the next one. *)
          Attack.Campaign.exploit_development_us = 2 * 3600 * 1_000_000;
          attempt_interval_us = 60 * 1_000_000;
          retarget = `Largest_group;
        }
      ~on_compromise:(fun r ->
        compromised_since.(r) <- Sim.Engine.now engine;
        (System.faults sys r).Bft.Faults.silent <- true)
      ~on_cleanse:(fun r ->
        held_total := !held_total + (Sim.Engine.now engine - compromised_since.(r));
        incr held_count;
        (System.faults sys r).Bft.Faults.silent <- false)
  in
  if recovery_on then begin
    System.on_recovery_event sys (fun phase r ->
        match phase with
        | `Begin -> Attack.Campaign.set_recovering campaign r true
        | `Complete ->
          Attack.Campaign.set_recovering campaign r false;
          Attack.Campaign.notify_rejuvenated campaign r);
    ignore
      (System.enable_recovery sys
         ~rotation_period_us:(60 * 60 * 1_000_000)
         ~recovery_duration_us:(2 * 60 * 1_000_000)
        : Recovery.Scheduler.t);
    if reactive_on then
      System.enable_reactive_recovery sys
        ~silence_threshold_us:(120 * 1_000_000)
        ~poll_interval_us:(30 * 1_000_000)
  end;
  Attack.Campaign.start campaign;
  (* Sample the compromised count every virtual minute to integrate the
     time spent above f. *)
  let time_above_f = ref 0 in
  let sample_interval = 60 * 1_000_000 in
  ignore
    (Sim.Engine.periodic engine ~interval_us:sample_interval (fun () ->
         if Attack.Campaign.compromised_count campaign > f then
           time_above_f := !time_above_f + sample_interval)
      : Sim.Engine.timer);
  System.run sys ~duration_us;
  Attack.Campaign.stop campaign;
  let result =
    {
      max_simultaneous_compromised = Attack.Campaign.max_simultaneous campaign;
      total_compromises = Attack.Campaign.total_compromises campaign;
      exploits_developed = Attack.Campaign.exploits_developed campaign;
      time_above_f_us = !time_above_f;
      final_compromised = Attack.Campaign.compromised_count campaign;
      mean_held_us = (if !held_count = 0 then 0 else !held_total / !held_count);
    }
  in
  (sys, result)

let fleet ~concentrators ~devices ~duration_us () =
  let cfg =
    {
      (System.default_config ()) with
      System.substations = 2;
      hmis = 1;
      (* A fleet this wide needs the end-to-end batch path: aggregates
         from many concentrators pack into Client_batch frames. *)
      max_batch = 8;
      batch_delay_us = 5_000;
      field_concentrators = concentrators;
      field_devices = devices;
    }
  in
  let sys = System.create cfg in
  System.start sys;
  System.run sys ~duration_us;
  finish sys ~duration_us

type adaptive_attack =
  | Leader_slowdown of int  (* proposal delay, us (the E4 attack) *)
  | Wan_delay of float (* primary-WAN latency factor (the E6 attack) *)

type adaptive_result = {
  base : latency_result;
  post_attack_p99_ms : float;
  knob_applied : int;
  knob_rejected : int;
  journal_consistent : bool;
}

let post_attack_p99 series ~from_us =
  let h = Stats.Histogram.create () in
  List.iter
    (fun (time_us, lat_ms) ->
      if time_us >= from_us then Stats.Histogram.add h lat_ms)
    (Stats.Timeseries.to_list series);
  if Stats.Histogram.count h = 0 then Float.infinity
  else Stats.Histogram.percentile h 99.

(* Experiment E13: adaptive resilience. The same deployment faces one
   of two attacks it is never told about — the E4 leader slowdown or
   the E6 undetected WAN delay. Static configurations each do well
   against one and poorly against the other; the two-level controller
   ([adaptive = true]) must diagnose the phase signature at runtime
   and steer the knobs toward whichever static configuration is best
   for the attack actually running. Telemetry is on in every arm
   (including the static baselines) so the arms differ only in the
   controller. *)
let adaptive ?(controller = true) ?(mode = Overlay.Net.Shortest) ~attack
    ~attack_from_us ~duration_us () =
  let cfg =
    {
      (System.default_config ()) with
      System.dissemination = mode;
      telemetry = true;
      adaptive = controller;
    }
  in
  let sys = System.create cfg in
  System.start sys;
  ignore
    (Sim.Engine.schedule_at (System.engine sys) ~time_us:attack_from_us
       (fun () ->
         match attack with
         | Leader_slowdown delay_us -> System.set_leader_delay sys ~delay_us
         | Wan_delay factor -> congest_primary_wan sys factor)
      : Sim.Engine.timer);
  System.run sys ~duration_us;
  System.assert_agreement sys;
  let base = result_of sys ~duration_us in
  let knobs = System.knobs sys in
  ( sys,
    {
      base;
      post_attack_p99_ms = post_attack_p99 base.series ~from_us:attack_from_us;
      knob_applied = Control.Knobs.total_applied knobs;
      knob_rejected = Control.Knobs.total_rejected knobs;
      journal_consistent = Control.Knobs.reconcile knobs;
    } )
