(* Integration tests for the full Spire system: configuration calculus,
   end-to-end deployment, attacks, recovery, and site failures.

   These are the heaviest tests in the suite (each spins up the full
   overlay + replicas + proxies); durations are kept short. *)

module CC = Spire.Config_calc
module Sys_ = Spire.System

(* ------------------------------------------------------------------ *)
(* Config calculus (experiment E1 logic) *)

(* [n] of the minimal configuration over [sites] sites. *)
let minimal_n ~f ~k ~sites =
  (CC.minimal_config ~f ~k ~sites ~control_centers:2).CC.n

(* The resilience bound: site counts sum to [n], which is at least
   [Bft.Quorum]'s 3f + 2k + 1. *)
let meets_bound (c : CC.configuration) =
  c.n = List.fold_left (fun acc (_, size) -> acc + size) 0 c.sites
  && c.n >= (Bft.Quorum.minimal ~f:c.f ~k:c.k).Bft.Quorum.n

let test_required_replicas () =
  (* Over 4 sites the site-loss constraint never binds for these
     budgets, so the minimal configuration is exactly 3f + 2k + 1. *)
  Alcotest.(check int) "f=1 k=0" 4 (minimal_n ~f:1 ~k:0 ~sites:4);
  Alcotest.(check int) "f=1 k=1" 6 (minimal_n ~f:1 ~k:1 ~sites:4);
  Alcotest.(check int) "f=2 k=1" 9 (minimal_n ~f:2 ~k:1 ~sites:4);
  Alcotest.(check int) "f=3 k=2" 14 (minimal_n ~f:3 ~k:2 ~sites:4)

let test_minimal_n_site_constraint () =
  (* 4 sites, f=1, k=1: 6 replicas suffice ({2,2,1,1}). *)
  Alcotest.(check int) "4 sites" 6 (minimal_n ~f:1 ~k:1 ~sites:4);
  (* 2 sites need more: each site holds n/2, and losing one must leave
     a quorum of 4 -> n = 8. *)
  Alcotest.(check int) "2 sites" 8 (minimal_n ~f:1 ~k:1 ~sites:2);
  (* 3 sites: ceil(n/3) <= n - 4 -> n = 6 ({2,2,2}). *)
  Alcotest.(check int) "3 sites" 6 (minimal_n ~f:1 ~k:1 ~sites:3)

let test_minimal_config_valid () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "valid" true (meets_bound c);
      Alcotest.(check bool) "tolerates site loss" true (CC.tolerates_site_loss c);
      Alcotest.(check int) "2 CCs" 2
        (List.length
           (List.filter (fun (kind, _) -> kind = CC.Control_center) c.CC.sites)))
    (CC.standard_table ())

let test_standard_table_shape () =
  let table = CC.standard_table () in
  Alcotest.(check int) "27 rows (3f x 3k x 3sites)" 27 (List.length table);
  (* The flagship configuration from the paper: f=1, k=1, 4 sites, 6
     replicas 2+2+1+1. *)
  let flagship =
    List.find (fun c -> c.CC.f = 1 && c.CC.k = 1 && List.length c.CC.sites = 4) table
  in
  Alcotest.(check int) "flagship n" 6 flagship.CC.n;
  Alcotest.(check (list int)) "flagship spread" [ 2; 2; 1; 1 ]
    (List.map snd flagship.CC.sites)

let prop_site_loss_bound =
  QCheck.Test.make ~name:"minimal config always tolerates any site loss"
    QCheck.(triple (int_range 0 3) (int_range 0 3) (int_range 2 6))
    (fun (f, k, sites) ->
      QCheck.assume (f + k > 0);
      let c = CC.minimal_config ~f ~k ~sites ~control_centers:2 in
      meets_bound c && CC.tolerates_site_loss c)

let prop_minimal_n_is_minimal =
  QCheck.Test.make ~name:"minimal n: n-1 violates a constraint"
    QCheck.(triple (int_range 0 2) (int_range 0 2) (int_range 2 5))
    (fun (f, k, sites) ->
      QCheck.assume (f + k > 0);
      let n = minimal_n ~f ~k ~sites in
      let q = CC.quorum ~f ~k in
      let smaller = n - 1 in
      smaller < (Bft.Quorum.minimal ~f ~k).Bft.Quorum.n
      || smaller < sites
      || smaller - ((smaller + sites - 1) / sites) < q)

(* ------------------------------------------------------------------ *)
(* End-to-end system *)

let short_config () =
  { (Sys_.default_config ()) with Sys_.substations = 4; poll_interval_us = 50_000 }

(* The deployment's site layout is the E1 minimal configuration. *)
let test_default_layout_is_minimal () =
  Alcotest.(check (list int)) "default sites = minimal f=1 k=1 over 4"
    (List.map snd
       (CC.minimal_config ~f:1 ~k:1 ~sites:4 ~control_centers:2).CC.sites)
    (Sys_.site_sizes (Sys_.default_config ()))

(* A quorum other than the default lays out by the same rule: f=1,
   k=0 puts one replica on each of the four sites, and it orders. *)
let test_system_four_replicas () =
  let cfg =
    { (short_config ()) with Sys_.quorum = Bft.Quorum.create ~n:4 ~f:1 ~k:0 }
  in
  Alcotest.(check (list int)) "one replica per site" [ 1; 1; 1; 1 ]
    (Sys_.site_sizes cfg);
  let sys = Sys_.create cfg in
  Sys_.start sys;
  Sys_.run sys ~duration_us:2_000_000;
  Sys_.assert_agreement sys;
  (* 4 substations x 20 polls/s x 2 s = 160 updates; allow in-flight tail. *)
  Alcotest.(check bool) "most updates confirmed" true
    (Sys_.confirmed_updates sys >= 140)

(* One replica cannot cover four sites, let alone lose one. *)
let test_system_rejects_single_replica () =
  Alcotest.check_raises "n=1 rejected"
    (Invalid_argument
       "System.create: quorum does not fill four sites or survive losing one")
    (fun () ->
      ignore
        (Sys_.create
           {
             (Sys_.default_config ()) with
             Sys_.quorum = Bft.Quorum.create ~n:1 ~f:0 ~k:0;
           }
          : Sys_.t))

let test_system_fault_free_end_to_end () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  Sys_.run sys ~duration_us:3_000_000;
  Sys_.assert_agreement sys;
  (* 4 substations x 20 polls/s x 3s = 240 updates; allow in-flight tail. *)
  Alcotest.(check bool) "most updates confirmed" true
    (Sys_.confirmed_updates sys >= 220);
  let hist = Sys_.latency_histogram sys in
  Alcotest.(check bool) "p99 under 100ms (wide area)" true
    (Stats.Histogram.percentile hist 99. < 100.);
  (* Masters saw all RTUs. *)
  Alcotest.(check int) "master knows all RTUs" 4
    (List.length (Scada.Master.known_rtus (Sys_.master sys 0)))

(* HMIs batch like proxies: with batching on, a burst of operator
   commands fills one generation and ships as a single Client_batch
   frame. No proxies run, so every client frame is the HMI's. *)
let test_system_hmi_burst_ships_one_batch () =
  let sys =
    Sys_.create
      { (short_config ()) with Sys_.substations = 0; max_batch = 8 }
  in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:500_000 (fun () ->
         for _ = 1 to 8 do
           ignore (Scada.Hmi.read_state (Sys_.hmi sys 0) : Bft.Update.t)
         done)
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:2_000_000;
  Sys_.assert_agreement sys;
  let frames kind =
    List.fold_left
      (fun acc (k, f, _) -> if k = kind then acc + f else acc)
      0 (Sys_.wire_traffic sys)
  in
  Alcotest.(check int) "one client_batch frame" 1 (frames "client_batch");
  Alcotest.(check int) "no client_update frame" 0 (frames "client_update");
  Alcotest.(check int) "all eight confirmed" 8
    (Scada.Hmi.confirmed_commands (Sys_.hmi sys 0))

let test_system_hmi_command_reaches_rtu () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:500_000 (fun () ->
         ignore (Scada.Hmi.open_breaker (Sys_.hmi sys 0) ~rtu:2 ~breaker:1))
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:3_000_000;
  Sys_.assert_agreement sys;
  (* The command executed, was threshold-confirmed at the HMI, and the
     proxy actuated the RTU. *)
  Alcotest.(check bool) "hmi confirmed" true
    (Scada.Hmi.confirmed_commands (Sys_.hmi sys 0) >= 1);
  Alcotest.(check int) "proxy actuated" 1
    (Scada.Proxy.commands_applied (Sys_.proxy sys 2));
  Alcotest.(check bool) "breaker physically open" true
    (Scada.Rtu.breaker (Scada.Proxy.rtu (Sys_.proxy sys 2)) ~index:1 = Scada.Rtu.Open);
  (* And the replicated masters recorded the operator intent. *)
  Alcotest.(check bool) "intent in master" true
    (Scada.Master.breaker_intent (Sys_.master sys 1) ~rtu:2 ~breaker:1
    = Some Scada.Rtu.Open)

let test_system_pbft_baseline_works_fault_free () =
  let cfg = { (short_config ()) with Sys_.protocol = Sys_.Pbft_protocol } in
  let sys = Sys_.create cfg in
  Sys_.start sys;
  Sys_.run sys ~duration_us:3_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check bool) "pbft confirms updates" true
    (Sys_.confirmed_updates sys >= 200)

let test_system_crashed_replica_tolerated () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:500_000 (fun () ->
         Sys_.crash_replica sys 5)
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:3_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check bool) "service continues" true
    (Sys_.confirmed_updates sys >= 200)

let test_system_site_failure_service_continues () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:1_000_000 (fun () ->
         Sys_.kill_site sys 0)
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:5_000_000;
  Sys_.assert_agreement sys;
  (* Losing control center 0 (2 replicas incl. the leader) must not stop
     the service: the other 4 replicas form a quorum. *)
  let confirmed = Sys_.confirmed_updates sys in
  Alcotest.(check bool)
    (Printf.sprintf "service survived site loss (confirmed=%d)" confirmed)
    true (confirmed >= 280)

let test_system_leader_slowdown_prime_recovers () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:1_000_000 (fun () ->
         Sys_.set_leader_delay sys ~delay_us:2_000_000)
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:8_000_000;
  Sys_.assert_agreement sys;
  (* Prime suspected and replaced the slow leader. *)
  Alcotest.(check bool) "view advanced" true (Sys_.view_of sys 1 >= 1);
  Alcotest.(check bool) "leader moved" true
    (Bft.Types.leader_of ~n:6 (Sys_.view_of sys 1) <> 0)

let test_system_proactive_recovery_full_cycle () =
  let sys = Sys_.create (short_config ()) in
  let events = ref [] in
  Sys_.on_recovery_event sys (fun phase r -> events := (phase, r) :: !events);
  Sys_.start sys;
  let sched =
    Sys_.enable_recovery sys ~rotation_period_us:3_000_000
      ~recovery_duration_us:300_000
  in
  Sys_.run sys ~duration_us:7_000_000;
  Sys_.assert_agreement sys;
  (* Two full rotations: every replica recovered at least once. *)
  Alcotest.(check bool) "recoveries happened" true
    (Recovery.Scheduler.recoveries_completed sched >= 6);
  let recovered =
    List.sort_uniq compare
      (List.filter_map (function `Complete, r -> Some r | `Begin, _ -> None) !events)
  in
  Alcotest.(check (list int)) "all replicas rotated" [ 0; 1; 2; 3; 4; 5 ] recovered;
  (* Diversity redraws happened. *)
  Alcotest.(check bool) "incarnations advanced" true
    (Recovery.Diversity.incarnation (Sys_.diversity sys) 0 >= 1);
  (* Service kept flowing throughout. *)
  Alcotest.(check bool) "service continued" true (Sys_.confirmed_updates sys >= 400)

let test_system_recovery_requires_prime () =
  let cfg = { (short_config ()) with Sys_.protocol = Sys_.Pbft_protocol } in
  let sys = Sys_.create cfg in
  Alcotest.check_raises "pbft rejected"
    (Invalid_argument "System.enable_recovery: recovery requires the Prime protocol")
    (fun () ->
      ignore
        (Sys_.enable_recovery sys ~rotation_period_us:1_000_000
           ~recovery_duration_us:100_000))

let test_system_reactive_recovery_cleanses_silent_replica () =
  (* A compromised (silent) replica is accused by its peers and
     rejuvenated within seconds — long before its rotation slot. *)
  let sys = Sys_.create (short_config ()) in
  let completed = ref [] in
  Sys_.on_recovery_event sys (fun phase r ->
      if phase = `Complete then completed := r :: !completed);
  Sys_.start sys;
  ignore
    (Sys_.enable_recovery sys ~rotation_period_us:600_000_000
       (* rotation far beyond the test horizon: any recovery we see is
          reactive *)
       ~recovery_duration_us:200_000
      : Recovery.Scheduler.t);
  Sys_.enable_reactive_recovery sys ~silence_threshold_us:1_000_000
    ~poll_interval_us:250_000;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:500_000 (fun () ->
         (Sys_.faults sys 3).Bft.Faults.silent <- true)
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:6_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check bool) "replica 3 reactively recovered" true
    (List.mem 3 !completed);
  (* Rejuvenation resets the fault (clean image). *)
  Alcotest.(check bool) "silence cleansed" false
    (Sys_.faults sys 3).Bft.Faults.silent;
  (* No spurious recoveries of honest replicas. *)
  Alcotest.(check bool) "no witch hunts" true
    (List.for_all (fun r -> r = 3) !completed)

let test_system_reactive_requires_recovery () =
  let sys = Sys_.create (short_config ()) in
  Alcotest.check_raises "requires proactive first"
    (Invalid_argument "System.enable_reactive_recovery: call enable_recovery first")
    (fun () ->
      Sys_.enable_reactive_recovery sys ~silence_threshold_us:1_000_000
        ~poll_interval_us:250_000)

let test_system_site_isolation_and_reconnect () =
  (* The paper's actual scenario: the control center is cut off the
     network, its replicas keep running, and after reconnection they
     adopt the quorum's view from live traffic (no state transfer). *)
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:1_000_000 (fun () ->
         Sys_.isolate_site sys 0)
      : Sim.Engine.timer);
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:5_000_000 (fun () ->
         Sys_.reconnect_site sys 0)
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:10_000_000;
  Sys_.assert_agreement sys;
  (* Service survived the isolation... *)
  Alcotest.(check bool) "service survived" true
    (Sys_.confirmed_updates sys >= 550);
  (* ...and the isolated replicas adopted the new view after
     reconnection and caught up on the ordered history. *)
  let majority_view = Sys_.view_of sys 2 in
  Alcotest.(check bool) "view advanced during isolation" true
    (majority_view >= 1);
  Alcotest.(check int) "replica 0 adopted the view" majority_view
    (Sys_.view_of sys 0);
  let l0 = Sys_.exec_log sys 0 and l2 = Sys_.exec_log sys 2 in
  Alcotest.(check bool) "replica 0 caught up" true
    (Bft.Exec_log.length l0 >= Bft.Exec_log.length l2 - 50)

let test_system_tap_command_end_to_end () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:300_000 (fun () ->
         ignore (Scada.Hmi.set_tap (Sys_.hmi sys 0) ~rtu:1 ~position:(-5)))
      : Sim.Engine.timer);
  Sys_.run sys ~duration_us:2_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check int) "tap moved at the device" (-5)
    (Scada.Rtu.read_status (Scada.Proxy.rtu (Sys_.proxy sys 1))).Scada.Rtu.tap_position

let test_scenarios_throughput_smoke () =
  let _, r =
    Spire.Scenarios.throughput ~substations:8 ~poll_interval_us:50_000
      ~duration_us:2_000_000 ()
  in
  Alcotest.(check bool) "confirms most" true
    (float_of_int r.Spire.Scenarios.confirmed
     /. float_of_int (max 1 r.Spire.Scenarios.submitted)
    > 0.9)

let () =
  Alcotest.run "spire"
    [
      ( "config_calc",
        [
          Alcotest.test_case "required replicas" `Quick test_required_replicas;
          Alcotest.test_case "minimal n per sites" `Quick
            test_minimal_n_site_constraint;
          Alcotest.test_case "table valid" `Quick test_minimal_config_valid;
          Alcotest.test_case "table shape" `Quick test_standard_table_shape;
          Alcotest.test_case "default layout is minimal" `Quick
            test_default_layout_is_minimal;
          QCheck_alcotest.to_alcotest prop_site_loss_bound;
          QCheck_alcotest.to_alcotest prop_minimal_n_is_minimal;
        ] );
      ( "system",
        [
          Alcotest.test_case "fault-free end to end" `Quick
            test_system_fault_free_end_to_end;
          Alcotest.test_case "four replicas over four sites" `Quick
            test_system_four_replicas;
          Alcotest.test_case "single replica rejected" `Quick
            test_system_rejects_single_replica;
          Alcotest.test_case "hmi command reaches rtu" `Quick
            test_system_hmi_command_reaches_rtu;
          Alcotest.test_case "hmi burst ships one batch" `Quick
            test_system_hmi_burst_ships_one_batch;
          Alcotest.test_case "pbft baseline" `Quick
            test_system_pbft_baseline_works_fault_free;
          Alcotest.test_case "crashed replica tolerated" `Quick
            test_system_crashed_replica_tolerated;
          Alcotest.test_case "site failure" `Quick
            test_system_site_failure_service_continues;
          Alcotest.test_case "leader slowdown (prime)" `Quick
            test_system_leader_slowdown_prime_recovers;
          Alcotest.test_case "proactive recovery cycle" `Quick
            test_system_proactive_recovery_full_cycle;
          Alcotest.test_case "recovery requires prime" `Quick
            test_system_recovery_requires_prime;
          Alcotest.test_case "reactive recovery cleanses" `Quick
            test_system_reactive_recovery_cleanses_silent_replica;
          Alcotest.test_case "reactive requires proactive" `Quick
            test_system_reactive_requires_recovery;
          Alcotest.test_case "site isolation + reconnect" `Quick
            test_system_site_isolation_and_reconnect;
          Alcotest.test_case "tap command end to end" `Quick
            test_system_tap_command_end_to_end;
          Alcotest.test_case "throughput scenario smoke" `Quick
            test_scenarios_throughput_smoke;
        ] );
    ]
