(* Chaos subsystem tests: the schedule generator/validator, the oracle
   layer in isolation, and the end-to-end soak property — every
   within-budget random schedule must leave all four oracles green,
   while a deliberately over-budget schedule must make one fire (the
   oracles are not vacuous). *)

let quorum_6 = Bft.Quorum.create ~n:6 ~f:1 ~k:1

(* The generator/validator profile of the default deployment, derived
   from a real built system so the tests exercise the same replica
   topology the soak runs on. *)
let profile =
  lazy
    (Spire.Injector.profile_of_system
       (Spire.System.create (Spire.System.default_config ())))

(* ------------------------------------------------------------------ *)
(* Schedule generator and validator                                    *)

let test_generator_deterministic () =
  let profile = Lazy.force profile in
  for i = 0 to 9 do
    let seed = Int64.of_int ((i * 7_919) + 1) in
    let s1 =
      Attack.Schedule.generate ~profile ~seed ~horizon_us:6_000_000
    in
    let s2 =
      Attack.Schedule.generate ~profile ~seed ~horizon_us:6_000_000
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %Ld reproduces the schedule" seed)
      (Format.asprintf "%a" Attack.Schedule.pp s1)
      (Format.asprintf "%a" Attack.Schedule.pp s2);
    if s1 <> s2 then Alcotest.fail "structurally different schedules"
  done

let test_generator_within_budget () =
  let profile = Lazy.force profile in
  for i = 0 to 24 do
    let seed = Int64.of_int ((i * 104_729) + 3) in
    let s =
      Attack.Schedule.generate ~profile ~seed ~horizon_us:6_000_000
    in
    (match Attack.Schedule.validate ~profile s with
    | Ok () -> ()
    | Error msg ->
      Alcotest.failf "seed %Ld generated an invalid schedule: %s@.%a" seed msg
        Attack.Schedule.pp s);
    if s.Attack.Schedule.events = [] then
      Alcotest.failf "seed %Ld generated an empty schedule" seed
  done

let over_budget_schedule =
  (* Three simultaneous crashes: n - 3 = 3 available < quorum 4. One
     more than the f + k = 2 simultaneous failures the deployment
     tolerates. *)
  Attack.Schedule.
    {
      horizon_us = 3_000_000;
      events =
        [
          { at_us = 200_000; fault = Crash_restart { replica = 0; down_us = 2_000_000 } };
          { at_us = 200_000; fault = Crash_restart { replica = 2; down_us = 2_000_000 } };
          { at_us = 200_000; fault = Crash_restart { replica = 4; down_us = 2_000_000 } };
        ];
    }

(* Validator verdicts, one row per schedule: [None] must validate,
   [Some m] must be rejected with a message containing [m]. *)
let validator_cases =
  let at at_us fault = { Attack.Schedule.at_us; fault } in
  let plan ?(horizon_us = 3_000_000) events = { Attack.Schedule.horizon_us; events } in
  let latency_ramp peak_factor =
    Attack.Schedule.Latency_ramp
      { a = 0; b = 2; peak_factor; ramp_us = 100_000; hold_us = 100_000 }
  in
  Attack.Schedule.
    [
      ("3 concurrent crashes", over_budget_schedule, Some "down/recovering");
      ( "two faults on one replica",
        plan
          [
            at 100_000 (Crash_restart { replica = 1; down_us = 500_000 });
            at 300_000 (Silence { replica = 1; duration_us = 500_000 });
          ],
        Some "same resource" );
      ( "a fault outliving the horizon",
        plan ~horizon_us:1_000_000
          [ at 800_000 (Daemon_churn { replica = 0; down_us = 400_000 }) ],
        Some "horizon" );
      ("latency ramp to nan", plan [ at 0 (latency_ramp nan) ], Some "factor");
      ("latency ramp to infinity", plan [ at 0 (latency_ramp infinity) ], Some "factor");
      ( "loss ramp to nan",
        plan
          [ at 0 (Loss_ramp { a = 0; b = 2; peak = nan; ramp_us = 1; hold_us = 1 }) ],
        Some "loss" );
      ( "message delay of nan",
        plan [ at 0 (Message_delay { replica = 0; factor = nan; duration_us = 1 }) ],
        Some "factor" );
      ( "WAN delay of infinity",
        plan [ at 0 (Wan_delay { factor = infinity; duration_us = 1 }) ],
        Some "factor" );
      ( "WAN loss of nan",
        plan [ at 0 (Wan_loss { loss = nan; duration_us = 1 }) ],
        Some "loss" );
      ( "site kill of a 2-replica site alone",
        plan [ at 100_000 (Site_kill { site = 0; down_us = 1_000_000 }) ],
        None );
      ( "site kill overlapping a crash-restart",
        plan
          [
            at 100_000 (Site_kill { site = 0; down_us = 1_000_000 });
            at 500_000 (Crash_restart { replica = 4; down_us = 1_000_000 });
          ],
        Some "overlaps" );
      ( "leader delay concurrent with a silence exceeds f",
        plan
          [
            at 100_000 (Leader_delay { delay_us = 500_000; duration_us = 1_000_000 });
            at 500_000 (Silence { replica = 3; duration_us = 1_000_000 });
          ],
        Some "2 concurrent Byzantine" );
      ( "WAN delay alone: 6 primary links against 3 gray",
        plan [ at 0 (Wan_delay { factor = 20.; duration_us = 1_000_000 }) ],
        Some "6 concurrent gray" );
    ]

let mentions msg part =
  let n = String.length part in
  let rec from i =
    i + n <= String.length msg && (String.sub msg i n = part || from (i + 1))
  in
  from 0

let test_validate_rejects_over_budget () =
  let profile = Lazy.force profile in
  List.iter
    (fun (name, schedule, expected) ->
      match (Attack.Schedule.validate ~profile schedule, expected) with
      | Ok (), None -> ()
      | Error msg, Some part when mentions msg part -> ()
      | Ok (), Some part -> Alcotest.failf "%s: accepted, expected %S" name part
      | Error msg, _ -> Alcotest.failf "%s: rejected with %S" name msg)
    validator_cases

(* The injector heals the replica a leader delay started on, even
   after the leader role has moved away from it. *)
let test_injector_leader_delay_heals_its_target () =
  let sys = Spire.System.create (Spire.System.default_config ()) in
  let faults r = Spire.System.faults sys r in
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:500_000;
  let first = Spire.System.current_leader sys in
  let live =
    Spire.Injector.start sys
      (Attack.Schedule.Leader_delay { delay_us = 2_000_000; duration_us = 1 })
  in
  Alcotest.(check int) "the leader is delayed" 2_000_000
    (faults first).Bft.Faults.proposal_delay_us;
  (* Prime suspects the slow leader and moves to the next view. *)
  Spire.System.run sys ~duration_us:6_000_000;
  let next = Spire.System.current_leader sys in
  Alcotest.(check bool) "the view changed away from it" true (next <> first);
  Spire.Injector.heal sys live;
  Alcotest.(check bool) "the delayed replica is honest again" false
    (Bft.Faults.is_byzantine (faults first));
  Alcotest.(check bool) "the new leader was never touched" false
    (Bft.Faults.is_byzantine (faults next))

(* ------------------------------------------------------------------ *)
(* Oracles in isolation                                                *)

let update i op =
  Bft.Update.create ~client:0 ~client_seq:i ~operation:op ~submitted_us:0

let test_agreement_oracle () =
  let a = Bft.Exec_log.create () in
  let b = Bft.Exec_log.create () in
  ignore (Bft.Exec_log.append a (update 1 "open breaker 3") : int);
  ignore (Bft.Exec_log.append a (update 2 "close breaker 7") : int);
  ignore (Bft.Exec_log.append b (update 1 "open breaker 3") : int);
  (* A lagging replica is a prefix: still agreement. *)
  (match Oracle.Agreement.check_logs [ (0, a); (1, b) ] with
  | Oracle.Verdict.Pass -> ()
  | Oracle.Verdict.Fail m -> Alcotest.failf "prefix flagged as divergence: %s" m);
  (* Divergence at position 2 must be caught. *)
  ignore (Bft.Exec_log.append b (update 2 "trip transformer 1") : int);
  (match Oracle.Agreement.check_logs [ (0, a); (1, b) ] with
  | Oracle.Verdict.Fail _ -> ()
  | Oracle.Verdict.Pass -> Alcotest.fail "divergent logs passed agreement");
  (* State check: equal applied counts require equal digests. *)
  let d1 = Cryptosim.Digest.of_string "state-x" in
  let d2 = Cryptosim.Digest.of_string "state-y" in
  (match Oracle.Agreement.check_states [ (0, 5, d1); (1, 5, d1); (2, 4, d2) ] with
  | Oracle.Verdict.Pass -> ()
  | Oracle.Verdict.Fail m -> Alcotest.failf "consistent states flagged: %s" m);
  (match Oracle.Agreement.check_states [ (0, 5, d1); (1, 5, d2) ] with
  | Oracle.Verdict.Fail _ -> ()
  | Oracle.Verdict.Pass -> Alcotest.fail "divergent states passed");
  (* The stateful oracle latches. *)
  let t = Oracle.Agreement.create () in
  Oracle.Agreement.observe t ~logs:[ (0, a); (1, b) ] ~states:[];
  Oracle.Agreement.observe t ~logs:[ (0, a) ] ~states:[];
  Alcotest.(check bool)
    "violation latches" false
    (Oracle.Verdict.is_pass (Oracle.Agreement.verdict t));
  Alcotest.(check int) "checks counted" 2 (Oracle.Agreement.checks t)

let test_sla_oracle () =
  let t = Oracle.Sla.create ~turbulent_bound_ms:20_000. ~calm_bound_ms:250. in
  Oracle.Sla.observe t ~time_us:1_000_000 ~latency_ms:120.;
  Alcotest.(check bool)
    "within calm bound" true
    (Oracle.Verdict.is_pass (Oracle.Sla.verdict t));
  Oracle.Sla.set_phase t Oracle.Sla.Turbulent;
  Oracle.Sla.observe t ~time_us:2_000_000 ~latency_ms:5_000.;
  Alcotest.(check bool)
    "relaxed bound during turbulence" true
    (Oracle.Verdict.is_pass (Oracle.Sla.verdict t));
  Oracle.Sla.set_phase t Oracle.Sla.Calm;
  Oracle.Sla.observe t ~time_us:3_000_000 ~latency_ms:300.;
  Alcotest.(check bool)
    "calm-bound violation fails" false
    (Oracle.Verdict.is_pass (Oracle.Sla.verdict t));
  Oracle.Sla.observe t ~time_us:4_000_000 ~latency_ms:10.;
  Alcotest.(check bool)
    "violation latches" false
    (Oracle.Verdict.is_pass (Oracle.Sla.verdict t));
  Alcotest.(check int) "samples counted" 4 (Oracle.Sla.samples t);
  Alcotest.(check (float 0.001)) "worst overall" 5_000. (Oracle.Sla.worst_ms t);
  Alcotest.(check (float 0.001))
    "worst calm" 300. (Oracle.Sla.worst_calm_ms t)

let test_quorum_watch_oracle () =
  let t = Oracle.Quorum_watch.create ~quorum:quorum_6 in
  Oracle.Quorum_watch.observe t ~time_us:0 ~available:6;
  Oracle.Quorum_watch.observe t ~time_us:100_000 ~available:4;
  Alcotest.(check bool)
    "quorum held" true
    (Oracle.Verdict.is_pass (Oracle.Quorum_watch.verdict t));
  Oracle.Quorum_watch.observe t ~time_us:200_000 ~available:3;
  Oracle.Quorum_watch.observe t ~time_us:300_000 ~available:6;
  Alcotest.(check bool)
    "sub-quorum sample latches" false
    (Oracle.Verdict.is_pass (Oracle.Quorum_watch.verdict t));
  Alcotest.(check int) "min available" 3 (Oracle.Quorum_watch.min_available t)

let test_recovery_oracle () =
  let baseline = Stats.Histogram.create () in
  let post_good = Stats.Histogram.create () in
  let post_slow = Stats.Histogram.create () in
  for _ = 1 to 50 do
    Stats.Histogram.add baseline 40.;
    Stats.Histogram.add post_good 50.;
    Stats.Histogram.add post_slow 400.
  done;
  let good =
    Oracle.Recovery_check.check ~factor:3. ~slack_ms:10. ~min_confirmed:20
      ~baseline ~post:post_good
  in
  Alcotest.(check bool)
    "recovered" true
    (Oracle.Verdict.is_pass good.Oracle.Recovery_check.verdict);
  let slow =
    Oracle.Recovery_check.check ~factor:3. ~slack_ms:10. ~min_confirmed:20
      ~baseline ~post:post_slow
  in
  Alcotest.(check bool)
    "limping post-heal latency fails" false
    (Oracle.Verdict.is_pass slow.Oracle.Recovery_check.verdict);
  let starved =
    Oracle.Recovery_check.check ~factor:3. ~slack_ms:10. ~min_confirmed:200
      ~baseline ~post:post_good
  in
  Alcotest.(check bool)
    "too few post-heal confirmations fails" false
    (Oracle.Verdict.is_pass starved.Oracle.Recovery_check.verdict)

let test_slot_finality_oracle () =
  let o = Oracle.Slot_finality.create () in
  let m1 = Cryptosim.Digest.of_string "matrix one" in
  let m2 = Cryptosim.Digest.of_string "matrix two" in
  Oracle.Slot_finality.observe o ~epoch:0 ~replica:0 ~seq:1 ~digest:m1;
  Oracle.Slot_finality.observe o ~epoch:0 ~replica:1 ~seq:1 ~digest:m1;
  (* The same slot number in another epoch is another slot. *)
  Oracle.Slot_finality.observe o ~epoch:1 ~replica:2 ~seq:1 ~digest:m2;
  Alcotest.(check bool) "agreeing applies pass" true
    (Oracle.Verdict.is_pass (Oracle.Slot_finality.verdict o));
  Oracle.Slot_finality.observe o ~epoch:0 ~replica:2 ~seq:1 ~digest:m2;
  Alcotest.(check int) "every apply counted" 4 (Oracle.Slot_finality.checks o);
  match Oracle.Slot_finality.verdict o with
  | Oracle.Verdict.Fail _ -> ()
  | Oracle.Verdict.Pass -> Alcotest.fail "conflicting apply not caught"

let expect_fail what verdict parts =
  match verdict with
  | Oracle.Verdict.Pass -> Alcotest.failf "%s passed" what
  | Oracle.Verdict.Fail msg ->
    List.iter
      (fun part ->
        if not (mentions msg part) then
          Alcotest.failf "%s: %S does not mention %S" what msg part)
      parts

(* Two epochs, each with its own quorum of live replicas, at one
   sample: two memberships could order conflicting updates. *)
let test_epoch_check_two_quorate_epochs () =
  let o = Oracle.Epoch_check.create () in
  let quorum_of = function 0 -> 4 | _ -> 3 in
  Oracle.Epoch_check.observe_activity o ~time_us:100 ~live:[ (0, 4); (1, 2) ]
    ~quorum_of;
  Alcotest.(check bool) "one quorate epoch passes" true
    (Oracle.Verdict.is_pass (Oracle.Epoch_check.verdict o));
  Oracle.Epoch_check.observe_activity o ~time_us:200 ~live:[ (0, 4); (1, 3) ]
    ~quorum_of;
  expect_fail "two quorate epochs" (Oracle.Epoch_check.verdict o)
    [ "epochs 0,1"; "t=200us" ]

(* One epoch observed with two boundaries, or two certificate digests,
   is a fork of the certificate chain. *)
let test_epoch_check_certificate_fork () =
  let d1 = Cryptosim.Digest.of_string "cert one" in
  let d2 = Cryptosim.Digest.of_string "cert two" in
  let boundary = Oracle.Epoch_check.create () in
  Oracle.Epoch_check.observe_cutover boundary ~epoch:1 ~boundary_exec:100
    ~digest:d1;
  Oracle.Epoch_check.observe_cutover boundary ~epoch:1 ~boundary_exec:100
    ~digest:d1;
  Alcotest.(check bool) "repeated cutover passes" true
    (Oracle.Verdict.is_pass (Oracle.Epoch_check.verdict boundary));
  Oracle.Epoch_check.observe_cutover boundary ~epoch:1 ~boundary_exec:101
    ~digest:d1;
  expect_fail "other boundary" (Oracle.Epoch_check.verdict boundary)
    [ "epoch 1 certificate fork"; "100 vs 101" ];
  let digest = Oracle.Epoch_check.create () in
  Oracle.Epoch_check.observe_cutover digest ~epoch:2 ~boundary_exec:7 ~digest:d1;
  Oracle.Epoch_check.observe_cutover digest ~epoch:2 ~boundary_exec:7 ~digest:d2;
  expect_fail "other digest" (Oracle.Epoch_check.verdict digest)
    [ "epoch 2 certificate fork" ]

let test_epoch_check_violation_latches () =
  let o = Oracle.Epoch_check.create () in
  Oracle.Epoch_check.note_violation o "boundary disagreement";
  Oracle.Epoch_check.observe_activity o ~time_us:100 ~live:[ (0, 6) ]
    ~quorum_of:(fun _ -> 4);
  Oracle.Epoch_check.observe_cutover o ~epoch:1 ~boundary_exec:5
    ~digest:(Cryptosim.Digest.of_string "cert");
  expect_fail "latched violation" (Oracle.Epoch_check.verdict o)
    [ "boundary disagreement" ]

(* The chain E11 walks: genesis, then three cutovers, each new epoch
   quorate only once the previous one has lost its quorum. *)
let test_epoch_check_clean_chain () =
  let o = Oracle.Epoch_check.create () in
  let quorum_of = function 0 | 2 -> 4 | 1 -> 3 | _ -> 5 in
  let sample time_us live =
    Oracle.Epoch_check.observe_activity o ~time_us ~live ~quorum_of
  in
  let cutover epoch boundary_exec =
    Oracle.Epoch_check.observe_cutover o ~epoch ~boundary_exec
      ~digest:(Cryptosim.Digest.of_string (Printf.sprintf "cert %d" epoch))
  in
  sample 0 [ (0, 6) ];
  cutover 1 1315;
  sample 1 [ (0, 2); (1, 4) ];
  cutover 2 2597;
  sample 2 [ (1, 1); (2, 6) ];
  cutover 3 3793;
  cutover 3 3793;
  sample 3 [ (2, 3); (3, 8) ];
  Alcotest.(check bool) "clean chain passes" true
    (Oracle.Verdict.is_pass (Oracle.Epoch_check.verdict o));
  Alcotest.(check int) "samples and cutovers counted" 8
    (Oracle.Epoch_check.observations o)

(* Watch wiring: site 0's replicas (0 and 1) run Prime with an ordering
   quorum of one, and the site is cut off at 1 s. Leader 0 keeps
   ordering on its own side, the other four change view and order the
   same slots differently. No fault knob is set, so all six replicas
   are correct, and the two sides' execution logs stay prefix-compatible:
   only the slot-apply hook sees the conflict. *)
let test_watch_catches_conflicting_applies () =
  let built = ref 0 in
  let weak_site_0 (c : Prime.Replica.config) =
    (* System.create builds the genesis replicas in id order. *)
    let r = !built in
    incr built;
    if r > 1 then c
    else
      { c with
        Prime.Replica.quorum =
          Bft.Quorum.create ~n:c.Prime.Replica.quorum.Bft.Quorum.n ~f:0 ~k:0 }
  in
  let sys =
    Spire.System.create
      { (Spire.System.default_config ()) with
        Spire.System.tweak_prime = weak_site_0 }
  in
  Alcotest.(check (list int)) "site 0" [ 0; 1 ]
    (Spire.System.replicas_in_site sys 0);
  let watch = Spire.Watch.create sys in
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:1_000_000;
  Spire.Watch.sample watch;
  Alcotest.(check bool) "agreement holds before the cut" true
    (Oracle.Verdict.is_pass (Spire.Watch.agreement watch));
  ignore
    (Spire.Injector.start sys
       (Attack.Schedule.Partition_site { site = 0; heal_after_us = 0 })
      : Attack.Schedule.fault);
  Spire.System.run sys ~duration_us:2_000_000;
  Spire.Watch.sample watch;
  Alcotest.(check bool) "every replica correct" true
    (List.for_all (Spire.System.correct sys) (List.init 6 Fun.id));
  Alcotest.(check bool) "logs stay prefix-compatible" true
    (Oracle.Verdict.is_pass
       (Oracle.Agreement.check_logs
          (List.init 6 (fun r -> (r, Spire.System.exec_log sys r)))));
  expect_fail "conflicting applies" (Spire.Watch.agreement watch)
    [ "slot-finality violation"; "epoch 0" ]

let test_verdict_combine () =
  let open Oracle.Verdict in
  Alcotest.(check bool) "all pass" true (is_pass (combine [ pass; pass ]));
  match combine [ pass; fail "first"; fail "second" ] with
  | Fail m -> Alcotest.(check string) "first failure wins" "first" m
  | Pass -> Alcotest.fail "failure swallowed"

(* ------------------------------------------------------------------ *)
(* End-to-end harness runs                                             *)

(* The soak property: ANY within-budget schedule leaves every oracle
   green. A failing seed prints its full report; rerunning
   [Chaos.Harness.soak ~seed] reproduces it exactly. *)
let prop_soak_clean =
  QCheck.Test.make ~count:50 ~name:"chaos soak: within-budget schedules stay clean"
    QCheck.(int_bound 1_000_000_000)
    (fun s ->
      let seed = Int64.of_int s in
      let report = Chaos.Harness.soak ~seed () in
      if Chaos.Harness.clean report then true
      else
        QCheck.Test.fail_reportf "%a" Chaos.Harness.pp_report report)

(* Non-vacuousness: pushing past the budget must trip an oracle. Three
   simultaneous crashes leave 3 < quorum 4 available for two seconds;
   the quorum watchdog has to notice. *)
let test_over_budget_trips_quorum_oracle () =
  let report =
    Chaos.Harness.run ~seed:424_242L ~schedule:over_budget_schedule ()
  in
  Alcotest.(check bool)
    "over-budget run is not clean" false
    (Chaos.Harness.clean report);
  match List.assoc_opt "quorum" report.Chaos.Harness.verdicts with
  | Some (Oracle.Verdict.Fail _) -> ()
  | Some Oracle.Verdict.Pass | None ->
    Alcotest.failf "quorum watchdog stayed green:@.%a" Chaos.Harness.pp_report
      report

(* Regression: this exact two-fault within-budget schedule (soak seed
   9000027) once wedged the deployment — the leader proposed while its
   overlay daemon was dark, leaving a pre-prepare hole; the resulting
   stall escalated into a mass self-state-transfer that reset the
   leader's sequence counter, and the re-burned sequence numbers
   diverged the execution logs. Fixed by leader hole repair, the
   strictly-newer snapshot guard, and a monotone next_seq. Times are
   exact to the microsecond: the cascade is sensitive to sub-ms timing. *)
let test_regression_seed_9000027 () =
  let schedule =
    Attack.Schedule.
      {
        horizon_us = 6_000_000;
        events =
          [
            {
              at_us = 3_824_292;
              fault = Crash_restart { replica = 0; down_us = 340_000 };
            };
            {
              at_us = 5_114_943;
              fault = Daemon_churn { replica = 1; down_us = 260_000 };
            };
          ];
      }
  in
  let report = Chaos.Harness.run ~seed:9_000_027L ~schedule () in
  if not (Chaos.Harness.clean report) then
    Alcotest.failf "leader-hole regression resurfaced:@.%a"
      Chaos.Harness.pp_report report

(* Commit-path regressions: soak seeds that once left the run dirty.
   Each must stay clean under [Chaos.Harness.soak ~seed] with the
   default budget. *)
let soak_regressions =
  [
    (960_812_664L, "stale leader overwrote a committed slot");
    (76_602_142L, "stale leader overwrote a committed slot");
    (944_580_408L, "old-view votes committed a re-filled slot");
    (91_564_785L, "re-proposal got no votes from its appliers");
    (29_847_906L, "commits lost, one replica ran ahead alone");
    (260_820_223L, "votes lost, no replica committed the slot");
    (224_000_672L, "commits lost, one replica ran ahead alone");
    (281_012_147L, "state transfer left a hole in an origin");
    (475_001_425L, "state transfer left a hole in an origin");
  ]

let test_soak_regression seed () =
  let report = Chaos.Harness.soak ~seed () in
  if not (Chaos.Harness.clean report) then
    Alcotest.failf "soak seed %Ld is dirty:@.%a" seed Chaos.Harness.pp_report
      report

(* Wire regression: a turbulent run with decode-on-delivery enabled.
   Every frame delivered during crashes, daemon churn and recovery
   storms is round-tripped through the binary codecs; a single decode
   mismatch fails [clean]. Pins down codec bugs that only bite on
   recovery-path traffic (state-transfer chunks, view changes). The
   deployment is the soak's (3 substations) with wire_debug on. *)
let test_wire_debug_under_turbulence () =
  let system =
    {
      (Spire.System.default_config ()) with
      Spire.System.substations = 3;
      wire_debug = true;
    }
  in
  let schedule =
    Attack.Schedule.
      {
        horizon_us = 6_000_000;
        events =
          [
            {
              at_us = 1_500_000;
              fault = Crash_restart { replica = 2; down_us = 900_000 };
            };
            {
              at_us = 3_200_000;
              fault = Daemon_churn { replica = 4; down_us = 400_000 };
            };
          ];
      }
  in
  let report = Chaos.Harness.run ~system ~seed:0x31BEL ~schedule () in
  Alcotest.(check int)
    "no wire decode errors under turbulence" 0
    report.Chaos.Harness.wire_decode_errors;
  if not (Chaos.Harness.clean report) then
    Alcotest.failf "wire-debug chaos run not clean:@.%a" Chaos.Harness.pp_report
      report

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "generator is deterministic in the seed" `Quick
            test_generator_deterministic;
          Alcotest.test_case "generated schedules validate" `Quick
            test_generator_within_budget;
          Alcotest.test_case "validator rejects over-budget schedules" `Quick
            test_validate_rejects_over_budget;
          Alcotest.test_case "injector heals the replica a leader delay hit"
            `Quick test_injector_leader_delay_heals_its_target;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "agreement" `Quick test_agreement_oracle;
          Alcotest.test_case "slot finality" `Quick test_slot_finality_oracle;
          Alcotest.test_case "sla" `Quick test_sla_oracle;
          Alcotest.test_case "quorum watchdog" `Quick test_quorum_watch_oracle;
          Alcotest.test_case "post-heal recovery" `Quick test_recovery_oracle;
          Alcotest.test_case "verdict combine" `Quick test_verdict_combine;
          Alcotest.test_case "epoch check: two quorate epochs" `Quick
            test_epoch_check_two_quorate_epochs;
          Alcotest.test_case "epoch check: certificate fork" `Quick
            test_epoch_check_certificate_fork;
          Alcotest.test_case "epoch check: violation latches" `Quick
            test_epoch_check_violation_latches;
          Alcotest.test_case "epoch check: clean chain" `Quick
            test_epoch_check_clean_chain;
          Alcotest.test_case "watch catches conflicting applies" `Quick
            test_watch_catches_conflicting_applies;
        ] );
      ( "harness",
        [
          Alcotest.test_case "over-budget schedule trips the quorum oracle"
            `Quick test_over_budget_trips_quorum_oracle;
          Alcotest.test_case "regression: leader hole + state-transfer reset"
            `Slow test_regression_seed_9000027;
          Alcotest.test_case "decode-on-delivery stays clean under turbulence"
            `Slow test_wire_debug_under_turbulence;
          QCheck_alcotest.to_alcotest prop_soak_clean;
        ]
        @ List.map
            (fun (seed, what) ->
              Alcotest.test_case
                (Printf.sprintf "soak %Ld: %s" seed what)
                `Slow (test_soak_regression seed))
            soak_regressions );
    ]
