(* The soak deployment (the paper's wide-area system with 3
   substations; each run overrides the seed) and the run's windows and
   oracle bounds. *)
let soak_system () =
  { (Spire.System.default_config ()) with Spire.System.substations = 3 }

let baseline_us = 3_000_000
let turbulence_us = 6_000_000 (* the schedule horizon *)

(* Settle must outlast the worst client resubmission chain: an update
   lost twice during turbulence retries under exponential backoff (2 s
   then 4 s), and per-client FIFO successors drain only once the head
   confirms — up to ~4 s after the last fault heals. *)
let settle_us = 4_500_000
let post_us = 4_000_000

(* Updates submitted this close before the turbulence window are held
   to the relaxed bound too. *)
let inflight_guard_us = 1_000_000
let sample_interval_us = 100_000 (* agreement/quorum sampling cadence *)
let calm_bound_ms = 250.
let turbulent_bound_ms = 20_000.
let recovery_factor = 3. (* post-heal p50 <= factor * baseline p50 *)
let recovery_slack_ms = 10.

type report = {
  seed : int64;
  schedule : Schedule.t;
  verdicts : (string * Oracle.Verdict.t) list;
  submitted : int;
  confirmed : int;
  baseline_p50_ms : float;
  post_p50_ms : float;
  min_available : int;
  worst_latency_ms : float;
  agreement_checks : int;
  wire_decode_errors : int;
}

let all_pass verdicts =
  List.for_all (fun (_, v) -> Oracle.Verdict.is_pass v) verdicts

let clean r = r.wire_decode_errors = 0 && all_pass r.verdicts

let failures r =
  List.filter (fun (_, v) -> not (Oracle.Verdict.is_pass v)) r.verdicts

let pp_verdicts ppf verdicts =
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-10s %a@," name Oracle.Verdict.pp v)
    verdicts

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>chaos report (seed %Ld): %s@,%a@,\
     submitted %d, confirmed %d; baseline p50 %.1fms, post-heal p50 %.1fms; \
     min quorum availability %d; worst latency %.1fms@,"
    r.seed
    (if clean r then "CLEAN" else "VIOLATIONS")
    Schedule.pp r.schedule r.submitted r.confirmed r.baseline_p50_ms
    r.post_p50_ms r.min_available r.worst_latency_ms;
  if r.wire_decode_errors > 0 then
    Format.fprintf ppf "  wire decode errors: %d@," r.wire_decode_errors;
  pp_verdicts ppf r.verdicts;
  Format.fprintf ppf "@]"

(* Availability as the quorum watchdog defines it: correct (no fault
   knob set), process up, and overlay daemon reachable. *)
let available_count sys =
  let n = Spire.System.replica_count sys in
  let net = Spire.System.net sys in
  List.length
    (List.filter
       (fun r ->
         let f = Spire.System.faults sys r in
         (not f.Bft.Faults.crashed)
         && (not (Bft.Faults.is_byzantine f))
         && Overlay.Net.node_alive net (Spire.System.node_of_replica sys r))
       (List.init n Fun.id))

(* A replica the system considers correct: process up and no fault
   knob set. *)
let correct sys r =
  let f = Spire.System.faults sys r in
  (not f.Bft.Faults.crashed) && not (Bft.Faults.is_byzantine f)

(* One agreement observation over the correct replicas among
   [0 .. count-1]. *)
let observe_agreement agreement sys ~count =
  let correct = List.filter (correct sys) (List.init count Fun.id) in
  Oracle.Agreement.observe agreement
    ~logs:(List.map (fun r -> (r, Spire.System.exec_log sys r)) correct)
    ~states:
      (List.map
         (fun r ->
           let m = Spire.System.master sys r in
           (r, Scada.Master.applied_count m, Scada.Master.state_digest m))
         correct)

(* Slot finality, fed by every apply of a replica correct at that
   moment. *)
let watch_finality sys =
  let finality = Oracle.Slot_finality.create () in
  Spire.System.on_slot_applied sys (fun ~replica ~epoch ~seq ~digest ->
      if correct sys replica then
        Oracle.Slot_finality.observe finality ~epoch ~replica ~seq ~digest);
  finality

(* Slot finality reports under "agreement": it is the same safety
   property, checked per slot at every apply, and it fires first. *)
let agreement_verdict agreement finality =
  Oracle.Verdict.combine
    [ Oracle.Slot_finality.verdict finality; Oracle.Agreement.verdict agreement ]

(* Post-heal progress floor: a third of the calm-window polls. *)
let min_post_confirmed cfg =
  cfg.Spire.System.substations * post_us / cfg.Spire.System.poll_interval_us / 3

let execute ~seed sys (schedule : Schedule.t) =
  let cfg = Spire.System.config sys in
  let engine = Spire.System.engine sys in
  let turb_start = baseline_us in
  let heal_us = turb_start + schedule.Schedule.horizon_us in
  let calm_start = heal_us + settle_us in
  let end_us = calm_start + post_us in
  (* Submissions inside [turb_window] are held to the relaxed bound:
     the guard also covers updates already in flight when the first
     fault lands. *)
  let turbulent_from = turb_start - inflight_guard_us in
  let agreement = Oracle.Agreement.create () in
  let finality = watch_finality sys in
  let quorum_watch = Oracle.Quorum_watch.create ~quorum:cfg.Spire.System.quorum in
  let sla = Oracle.Sla.create ~turbulent_bound_ms ~calm_bound_ms in
  let baseline_hist = Stats.Histogram.create () in
  let post_hist = Stats.Histogram.create () in
  let series = Spire.System.latency_series sys in
  let drained = ref 0 in
  let drain_series () =
    let samples = Stats.Timeseries.to_list series in
    let fresh = List.filteri (fun i _ -> i >= !drained) samples in
    drained := List.length samples;
    List.iter
      (fun (confirmed_us, latency_ms) ->
        let submitted_us = confirmed_us - int_of_float (latency_ms *. 1000.) in
        let turbulent =
          submitted_us >= turbulent_from && submitted_us < calm_start
        in
        Oracle.Sla.set_phase sla
          (if turbulent then Oracle.Sla.Turbulent else Oracle.Sla.Calm);
        Oracle.Sla.observe sla ~time_us:confirmed_us ~latency_ms;
        if submitted_us < turbulent_from then
          Stats.Histogram.add baseline_hist latency_ms
        else if submitted_us >= calm_start then
          Stats.Histogram.add post_hist latency_ms)
      fresh
  in
  let sample () =
    let now = Sim.Engine.now engine in
    observe_agreement agreement sys ~count:(Spire.System.replica_count sys);
    Oracle.Quorum_watch.observe quorum_watch ~time_us:now
      ~available:(available_count sys);
    drain_series ()
  in
  ignore
    (Sim.Engine.periodic engine ~interval_us:sample_interval_us sample
      : Sim.Engine.timer);
  Injector.apply sys ~offset_us:turb_start schedule;
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:end_us;
  sample ();
  (* Post-heal recovery: service resumed and latency back near the
     fault-free baseline. *)
  let recovery =
    Oracle.Recovery_check.check ~factor:recovery_factor
      ~slack_ms:recovery_slack_ms ~min_confirmed:(min_post_confirmed cfg)
      ~baseline:baseline_hist ~post:post_hist
  in
  {
    seed;
    schedule;
    verdicts =
      [
        ("agreement", agreement_verdict agreement finality);
        ("sla", Oracle.Sla.verdict sla);
        ("quorum", Oracle.Quorum_watch.verdict quorum_watch);
        ("recovery", recovery.Oracle.Recovery_check.verdict);
      ];
    submitted = Spire.System.submitted_updates sys;
    confirmed = Spire.System.confirmed_updates sys;
    baseline_p50_ms = recovery.Oracle.Recovery_check.baseline_p50_ms;
    post_p50_ms = recovery.Oracle.Recovery_check.post_p50_ms;
    min_available = Oracle.Quorum_watch.min_available quorum_watch;
    worst_latency_ms = Oracle.Sla.worst_ms sla;
    agreement_checks = Oracle.Agreement.checks agreement;
    wire_decode_errors = Spire.System.wire_decode_errors sys;
  }

let run ?(system = soak_system ()) ~seed ~schedule () =
  execute ~seed (Spire.System.create { system with Spire.System.seed }) schedule

(* A within-budget schedule for [sys], drawn from [seed] xor [salt]. *)
let generate_schedule ~caller ~salt ~seed sys =
  let profile = Injector.profile_of_system sys in
  let budget = Schedule.budget_of_quorum profile.Schedule.quorum in
  let schedule =
    Schedule.generate ~profile ~budget ~seed:(Int64.logxor seed salt)
      ~horizon_us:turbulence_us
  in
  (match Schedule.validate ~profile ~budget schedule with
  | Ok () -> ()
  | Error msg ->
    failwith ("Chaos.Harness." ^ caller ^ ": generator emitted " ^ msg));
  schedule

(* ------------------------------------------------------------------ *)
(* Reconfiguration soak: a within-budget fault schedule runs WHILE the
   membership is being reconfigured through the ordered stream — a
   control-center failover mid-turbulence, then growth into the
   pre-provisioned standby site during the settle window. Safety
   oracles (agreement across the cutover, at-most-one-quorate-epoch,
   certificate-chain uniqueness) are sampled throughout; progress is
   asserted on the post-heal window. *)

type reconfig_report = {
  rc_seed : int64;
  rc_schedule : Schedule.t;
  rc_verdicts : (string * Oracle.Verdict.t) list;
      (** ["agreement"; "epoch"; "progress"] *)
  rc_final_epoch : int;
  rc_cutovers : (int * int * int) list;
  rc_submitted : int;
  rc_confirmed : int;
  rc_stale_frames : int;
}

let reconfig_clean r = all_pass r.rc_verdicts

let pp_reconfig_report ppf r =
  Format.fprintf ppf
    "@[<v>reconfig soak (seed %Ld): %s@,%a@,\
     final epoch %d (%d cutovers); submitted %d, confirmed %d; \
     stale frames %d@,"
    r.rc_seed
    (if reconfig_clean r then "CLEAN" else "VIOLATIONS")
    Schedule.pp r.rc_schedule r.rc_final_epoch
    (List.length r.rc_cutovers)
    r.rc_submitted r.rc_confirmed r.rc_stale_frames;
  pp_verdicts ppf r.rc_verdicts;
  Format.fprintf ppf "@]"

let reconfig_soak ~seed () =
  let sys =
    Spire.System.create
      { (soak_system ()) with Spire.System.standby_site_sizes = [ 2 ]; seed }
  in
  let engine = Spire.System.engine sys in
  let schedule =
    generate_schedule ~caller:"reconfig_soak" ~salt:0x0E11FACEL ~seed sys
  in
  let turb_start = baseline_us in
  let heal_us = turb_start + schedule.Schedule.horizon_us in
  let calm_start = heal_us + settle_us in
  let end_us = calm_start + post_us in
  let agreement = Oracle.Agreement.create () in
  let finality = watch_finality sys in
  let epoch_check = Oracle.Epoch_check.create () in
  let confirmed_at_calm = ref 0 in
  let sample () =
    let now = Sim.Engine.now engine in
    (* Agreement over every provisioned replica — retired replicas keep
       a valid prefix. *)
    observe_agreement agreement sys ~count:(Spire.System.universe_count sys);
    let dir = Spire.System.directory sys in
    Oracle.Epoch_check.observe_activity epoch_check ~time_us:now
      ~live:(Spire.System.epoch_activity sys)
      ~quorum_of:(fun e ->
        match Member.Directory.cert_of_epoch dir e with
        | Some c -> Member.Cert.quorum_size c
        | None -> max_int)
  in
  ignore
    (Sim.Engine.periodic engine ~interval_us:sample_interval_us sample
      : Sim.Engine.timer);
  Spire.System.on_epoch_change sys (fun e ->
      match
        Member.Directory.cert_of_epoch (Spire.System.directory sys) e
      with
      | Some c ->
        Oracle.Epoch_check.observe_cutover epoch_check ~epoch:e
          ~boundary_exec:(Member.Cert.boundary_exec c)
          ~digest:(Member.Cert.digest c)
      | None -> ());
  Injector.apply sys ~offset_us:turb_start schedule;
  (* Mid-turbulence: control-center failover (same resilience, same n —
     the fault budget stays survivable throughout). *)
  ignore
    (Sim.Engine.schedule_at engine
       ~time_us:(turb_start + (schedule.Schedule.horizon_us / 3))
       (fun () ->
         Spire.System.submit_reconfig sys [ Member.Reconfig.Promote 1 ])
      : Sim.Engine.timer);
  (* During settle: grow into the standby data center (k: 1 -> 2). *)
  ignore
    (Sim.Engine.schedule_at engine ~time_us:(heal_us + 1_000_000) (fun () ->
         Spire.System.submit_reconfig sys
           [
             Member.Reconfig.Set_resilience { f = 1; k = 2 };
             Member.Reconfig.Add_site
               {
                 site_id = 4;
                 role = Member.Cert.Data_center;
                 members = [ 6; 7 ];
               };
           ])
      : Sim.Engine.timer);
  ignore
    (Sim.Engine.schedule_at engine ~time_us:calm_start (fun () ->
         confirmed_at_calm := Spire.System.confirmed_updates sys)
      : Sim.Engine.timer);
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:end_us;
  sample ();
  (match Spire.System.epoch_violation sys with
  | Some v -> Oracle.Epoch_check.note_violation epoch_check v
  | None -> ());
  let confirmed = Spire.System.confirmed_updates sys in
  let min_confirmed = min_post_confirmed (Spire.System.config sys) in
  let progress =
    let post = confirmed - !confirmed_at_calm in
    if Spire.System.current_epoch sys < 2 then
      Oracle.Verdict.failf "reconfigurations incomplete: epoch %d < 2"
        (Spire.System.current_epoch sys)
    else if post < min_confirmed then
      Oracle.Verdict.failf "post-heal confirmations %d < %d" post min_confirmed
    else Oracle.Verdict.pass
  in
  {
    rc_seed = seed;
    rc_schedule = schedule;
    rc_verdicts =
      [
        ("agreement", agreement_verdict agreement finality);
        ("epoch", Oracle.Epoch_check.verdict epoch_check);
        ("progress", progress);
      ];
    rc_final_epoch = Spire.System.current_epoch sys;
    rc_cutovers = Spire.System.cutovers sys;
    rc_submitted = Spire.System.submitted_updates sys;
    rc_confirmed = confirmed;
    rc_stale_frames = Spire.System.stale_epoch_frames sys;
  }

let soak ~seed () =
  let sys = Spire.System.create { (soak_system ()) with Spire.System.seed } in
  execute ~seed sys
    (generate_schedule ~caller:"soak" ~salt:0x5EEDFACEL ~seed sys)

let soak_many ?domains ~seeds () =
  (* Each soak builds its own system from its seed — nothing is shared
     between jobs, so they satisfy the Sim.Parallel self-containment
     contract and the report list is identical for any domain count. *)
  let seeds = Array.of_list seeds in
  Array.to_list
    (Sim.Parallel.map ?domains (fun seed -> soak ~seed ()) seeds)
