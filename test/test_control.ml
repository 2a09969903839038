(* Tests for the runtime tuning plane ([lib/control]) and its wiring
   into the live system: validation bounds, journal/counter
   reconciliation, the global controller's escalation ladder, and
   hot-swapping knobs on a running deployment. *)

module K = Control.Knobs
module G = Control.Global
module Sys_ = Spire.System

let ok = function Ok () -> true | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Knobs: validation and the journal *)

let test_validate_bounds () =
  (* Through the plane with an actuator that accepts everything, so
     only validation can refuse. *)
  let k = K.create () in
  K.set_actuator k (fun _ -> Ok ());
  let accepted r = ok (K.request k ~now_us:0 ~source:"test" r) in
  let valid r = Alcotest.(check bool) "valid" true (accepted r) in
  let invalid r = Alcotest.(check bool) "invalid" false (accepted r) in
  valid (K.Set_routing K.Shortest);
  valid (K.Set_routing K.Flooding);
  valid (K.Set_routing (K.Kdisjoint 2));
  valid (K.Set_routing (K.Kdisjoint 8));
  invalid (K.Set_routing (K.Kdisjoint 1));
  invalid (K.Set_routing (K.Kdisjoint 9));
  valid (K.Set_tat_threshold_us K.min_tat_threshold_us);
  valid (K.Set_tat_threshold_us 60_000_000);
  invalid (K.Set_tat_threshold_us (K.min_tat_threshold_us - 1));
  invalid (K.Set_tat_threshold_us 60_000_001);
  valid (K.Set_tat_violations 1);
  invalid (K.Set_tat_violations 0);
  invalid (K.Set_tat_violations 101);
  valid K.Demote_leader

let test_no_actuator_rejects () =
  let k = K.create () in
  (* A valid request with no installed actuator must be rejected (and
     journalled), never silently dropped. *)
  Alcotest.(check bool) "rejected" false
    (ok (K.request k ~now_us:0 ~source:"test" (K.Set_routing K.Flooding)));
  Alcotest.(check int) "rejected counted" 1 (K.total_rejected k);
  Alcotest.(check int) "nothing applied" 0 (K.total_applied k);
  Alcotest.(check int) "one journal line" 1 (List.length (K.journal k));
  Alcotest.(check bool) "reconciles" true (K.reconcile k)

let test_counters_journal_reconcile () =
  let k = K.create () in
  (* Actuator that refuses TAT changes, applies everything else. *)
  K.set_actuator k (function
    | K.Set_tat_threshold_us _ -> Error "refused by deployment"
    | _ -> Ok ());
  let fire now_us r = ignore (K.request k ~now_us ~source:"test" r) in
  fire 10 (K.Set_tat_violations 2);
  fire 20 (K.Set_routing (K.Kdisjoint 0)) (* validation failure *);
  fire 30 (K.Set_routing K.Flooding);
  fire 40 (K.Set_tat_threshold_us 50_000) (* actuator failure *);
  fire 50 K.Demote_leader;
  Alcotest.(check int) "total applied" 3 (K.total_applied k);
  Alcotest.(check int) "total rejected" 2 (K.total_rejected k);
  Alcotest.(check int) "journal complete" 5 (List.length (K.journal k));
  (* Journal is oldest-first with provenance and outcomes. *)
  let j = K.journal k in
  Alcotest.(check (list int)) "chronological" [ 10; 20; 30; 40; 50 ]
    (List.map (fun e -> e.K.at_us) j);
  Alcotest.(check (list bool)) "outcomes recorded"
    [ true; false; true; false; true ]
    (List.map (fun e -> e.K.applied) j);
  List.iter
    (fun e -> Alcotest.(check string) "source recorded" "test" e.K.source)
    j;
  Alcotest.(check bool) "reconciles" true (K.reconcile k)

(* ------------------------------------------------------------------ *)
(* Global controller: escalation ladder, hysteresis, majority gate *)

let recording_knobs () =
  let k = K.create () in
  let reqs = ref [] in
  K.set_actuator k (fun r ->
      reqs := r :: !reqs;
      Ok ());
  (k, fun () -> List.rev !reqs)

let verdicts ?(n = 6) ?(slow = 0) kind =
  Array.init n (fun i -> if i < slow then kind else Control.Local.Healthy)

let test_global_routing_ladder () =
  let k, requests = recording_knobs () in
  let g = G.create (G.default_config ~n:6 ~base_tat_threshold_us:100_000) k in
  let net = verdicts ~slow:4 Control.Local.Net_slow in
  G.step g ~now_us:0 net;
  Alcotest.(check int) "first escalation" 1 (G.routing_level g);
  (* Within the cooldown: no further action even under sustained alarm. *)
  G.step g ~now_us:500_000 net;
  Alcotest.(check int) "cooldown holds" 1 (G.routing_level g);
  G.step g ~now_us:1_500_000 net;
  Alcotest.(check int) "second escalation" 2 (G.routing_level g);
  (* Ladder exhausted: stay at Flooding rather than thrash. *)
  G.step g ~now_us:3_000_000 net;
  Alcotest.(check int) "ladder capped" 2 (G.routing_level g);
  Alcotest.(check bool) "requests: kdisjoint then flooding" true
    (requests ()
    = [ K.Set_routing (K.Kdisjoint 2); K.Set_routing K.Flooding ]);
  Alcotest.(check bool) "journal reconciles" true (K.reconcile k)

let test_global_deescalates_after_sustained_health () =
  let k, requests = recording_knobs () in
  let cfg =
    { (G.default_config ~n:6 ~base_tat_threshold_us:100_000) with
      G.healthy_to_deescalate = 5;
    }
  in
  let g = G.create cfg k in
  G.step g ~now_us:0 (verdicts ~slow:6 Control.Local.Net_slow);
  Alcotest.(check int) "escalated" 1 (G.routing_level g);
  let healthy = verdicts Control.Local.Healthy in
  for i = 1 to 4 do
    G.step g ~now_us:(1_000_000 + (i * 250_000)) healthy
  done;
  Alcotest.(check int) "hysteresis: not yet" 1 (G.routing_level g);
  G.step g ~now_us:2_500_000 healthy;
  Alcotest.(check int) "de-escalated one step" 0 (G.routing_level g);
  Alcotest.(check bool) "returned to shortest" true
    (requests ()
    = [ K.Set_routing (K.Kdisjoint 2); K.Set_routing K.Shortest ])

let test_global_majority_gate () =
  let k, requests = recording_knobs () in
  let g = G.create (G.default_config ~n:6 ~base_tat_threshold_us:100_000) k in
  (* 3 of 6 is below the 4-vote majority: a compromised minority cannot
     steer the knobs, no matter how long it complains. *)
  for i = 0 to 9 do
    G.step g ~now_us:(i * 1_000_000) (verdicts ~slow:3 Control.Local.Net_slow)
  done;
  Alcotest.(check int) "no actions" 0 (G.actions g);
  Alcotest.(check int) "level unchanged" 0 (G.routing_level g);
  Alcotest.(check bool) "no requests" true (requests () = [])

let test_global_leader_strikes_tighten_tat () =
  let k, requests = recording_knobs () in
  let g = G.create (G.default_config ~n:6 ~base_tat_threshold_us:100_000) k in
  let leader = verdicts ~slow:4 Control.Local.Leader_slow in
  G.step g ~now_us:0 leader;
  Alcotest.(check bool) "first strike: demote only" true
    (requests () = [ K.Demote_leader ]);
  (* The condition survives a full cooldown: sharpen the protocol's own
     detector (one violation at half the threshold) and demote again. *)
  G.step g ~now_us:1_100_000 leader;
  Alcotest.(check bool) "second strike tightens TAT" true
    (requests ()
    = [
        K.Demote_leader;
        K.Set_tat_violations 1;
        K.Set_tat_threshold_us 50_000;
        K.Demote_leader;
      ]);
  Alcotest.(check bool) "journal reconciles" true (K.reconcile k)

(* ------------------------------------------------------------------ *)
(* Hot-swapping knobs on a live system *)

let short_config () =
  { (Sys_.default_config ()) with
    Sys_.substations = 4;
    poll_interval_us = 50_000;
  }

let test_system_routing_hot_swap () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  let outcome = ref (Error "never ran") in
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:1_000_000 (fun () ->
         outcome :=
           K.request (Sys_.knobs sys) ~now_us:1_000_000 ~source:"test"
             (K.Set_routing K.Flooding)));
  Sys_.run sys ~duration_us:3_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check bool) "swap applied" true (ok !outcome);
  Alcotest.(check bool) "mode switched live" true
    (Sys_.dissemination sys = Overlay.Net.Flood);
  Alcotest.(check bool) "traffic survived the swap" true
    (Sys_.confirmed_updates sys > 100);
  Alcotest.(check int) "one applied" 1 (K.total_applied (Sys_.knobs sys));
  Alcotest.(check bool) "journal reconciles" true
    (K.reconcile (Sys_.knobs sys))

let test_system_demote_leader_advances_view () =
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  let outcome = ref (Error "never ran") in
  ignore
    (Sim.Engine.schedule_at (Sys_.engine sys) ~time_us:1_000_000 (fun () ->
         outcome :=
           K.request (Sys_.knobs sys) ~now_us:1_000_000 ~source:"test"
             K.Demote_leader));
  Sys_.run sys ~duration_us:4_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check bool) "demotion applied" true (ok !outcome);
  (* Every correct replica suspects the view-0 leader at once: the
     protocol rotates. *)
  Alcotest.(check bool) "view advanced" true (Sys_.view_of sys 1 >= 1);
  Alcotest.(check bool) "traffic survived the rotation" true
    (Sys_.confirmed_updates sys > 100)

let test_system_deployment_guards () =
  (* TAT knobs and demotion on a PBFT deployment: the actuator refuses
     (PBFT has no TAT machinery and its leader keeps the role — the E4
     contrast), and each rejection is journalled like any other. *)
  let pbft =
    Sys_.create { (short_config ()) with Sys_.protocol = Sys_.Pbft_protocol }
  in
  Sys_.start pbft;
  let kp = Sys_.knobs pbft in
  Alcotest.(check bool) "tat threshold refused" false
    (ok (K.request kp ~now_us:0 ~source:"test" (K.Set_tat_threshold_us 50_000)));
  Alcotest.(check bool) "tat violations refused" false
    (ok (K.request kp ~now_us:0 ~source:"test" (K.Set_tat_violations 1)));
  Alcotest.(check bool) "demotion refused" false
    (ok (K.request kp ~now_us:0 ~source:"test" K.Demote_leader));
  Alcotest.(check int) "all journalled" 3 (K.total_rejected kp);
  Alcotest.(check bool) "journal reconciles" true (K.reconcile kp)

let test_controller_off_plane_inert () =
  (* adaptive = false (the default): only the controller and tests
     issue requests, so nothing touches the plane — the journal stays
     empty. *)
  let sys = Sys_.create (short_config ()) in
  Sys_.start sys;
  Sys_.run sys ~duration_us:2_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check int) "no journal entries" 0
    (List.length (K.journal (Sys_.knobs sys)));
  Alcotest.(check int) "no applied" 0 (K.total_applied (Sys_.knobs sys))

(* The controller senses only through the telemetry sink: a
   deployment that would run it blind is refused up front. *)
let test_blind_controller_rejected () =
  Alcotest.check_raises "adaptive without telemetry"
    (Invalid_argument "System.create: adaptive without telemetry") (fun () ->
      ignore
        (Sys_.create
           { (short_config ()) with Sys_.telemetry = false; adaptive = true }
          : Sys_.t))

let test_controller_on_healthy_run_no_actions () =
  (* The controller live on a healthy system must not thrash: no attack,
     no knob requests. *)
  let sys =
    Sys_.create
      { (short_config ()) with Sys_.telemetry = true; adaptive = true }
  in
  Sys_.start sys;
  Sys_.run sys ~duration_us:3_000_000;
  Sys_.assert_agreement sys;
  Alcotest.(check int) "no knob requests" 0
    (List.length (K.journal (Sys_.knobs sys)));
  Alcotest.(check bool) "journal reconciles" true
    (K.reconcile (Sys_.knobs sys))

let () =
  Alcotest.run "control"
    [
      ( "knobs",
        [
          Alcotest.test_case "validation bounds" `Quick test_validate_bounds;
          Alcotest.test_case "no actuator rejects" `Quick
            test_no_actuator_rejects;
          Alcotest.test_case "counters and journal reconcile" `Quick
            test_counters_journal_reconcile;
        ] );
      ( "global",
        [
          Alcotest.test_case "routing ladder escalates under cooldown" `Quick
            test_global_routing_ladder;
          Alcotest.test_case "sustained health de-escalates" `Quick
            test_global_deescalates_after_sustained_health;
          Alcotest.test_case "minority cannot steer" `Quick
            test_global_majority_gate;
          Alcotest.test_case "leader strikes tighten TAT" `Quick
            test_global_leader_strikes_tighten_tat;
        ] );
      ( "system",
        [
          Alcotest.test_case "routing hot-swap mid-run" `Quick
            test_system_routing_hot_swap;
          Alcotest.test_case "demotion rotates the leader" `Quick
            test_system_demote_leader_advances_view;
          Alcotest.test_case "deployment guards journalled" `Quick
            test_system_deployment_guards;
          Alcotest.test_case "controller off: plane inert" `Quick
            test_controller_off_plane_inert;
          Alcotest.test_case "controller on, healthy: no actions" `Quick
            test_controller_on_healthy_run_no_actions;
          Alcotest.test_case "blind controller rejected" `Quick
            test_blind_controller_rejected;
        ] );
    ]
