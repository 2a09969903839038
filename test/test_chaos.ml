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
    (Chaos.Injector.profile_of_system
       (Spire.System.create (Spire.System.default_config ())))

let budget () = Chaos.Schedule.budget_of_quorum quorum_6

(* ------------------------------------------------------------------ *)
(* Schedule generator and validator                                    *)

let test_generator_deterministic () =
  let profile = Lazy.force profile in
  let budget = budget () in
  for i = 0 to 9 do
    let seed = Int64.of_int ((i * 7_919) + 1) in
    let s1 =
      Chaos.Schedule.generate ~profile ~budget ~seed ~horizon_us:6_000_000
    in
    let s2 =
      Chaos.Schedule.generate ~profile ~budget ~seed ~horizon_us:6_000_000
    in
    Alcotest.(check string)
      (Printf.sprintf "seed %Ld reproduces the schedule" seed)
      (Format.asprintf "%a" Chaos.Schedule.pp s1)
      (Format.asprintf "%a" Chaos.Schedule.pp s2);
    if s1 <> s2 then Alcotest.fail "structurally different schedules"
  done

let test_generator_within_budget () =
  let profile = Lazy.force profile in
  let budget = budget () in
  for i = 0 to 24 do
    let seed = Int64.of_int ((i * 104_729) + 3) in
    let s =
      Chaos.Schedule.generate ~profile ~budget ~seed ~horizon_us:6_000_000
    in
    (match Chaos.Schedule.validate ~profile ~budget s with
    | Ok () -> ()
    | Error msg ->
      Alcotest.failf "seed %Ld generated an invalid schedule: %s@.%a" seed msg
        Chaos.Schedule.pp s);
    if s.Chaos.Schedule.events = [] then
      Alcotest.failf "seed %Ld generated an empty schedule" seed
  done

let over_budget_schedule =
  (* Three simultaneous crashes: n - 3 = 3 available < quorum 4. One
     more than the f + k = 2 simultaneous failures the deployment
     tolerates. *)
  Chaos.Schedule.
    {
      horizon_us = 3_000_000;
      events =
        [
          { at_us = 200_000; fault = Crash_restart { replica = 0; down_us = 2_000_000 } };
          { at_us = 200_000; fault = Crash_restart { replica = 2; down_us = 2_000_000 } };
          { at_us = 200_000; fault = Crash_restart { replica = 4; down_us = 2_000_000 } };
        ];
    }

let test_validate_rejects_over_budget () =
  let profile = Lazy.force profile in
  let budget = budget () in
  (match Chaos.Schedule.validate ~profile ~budget over_budget_schedule with
  | Ok () -> Alcotest.fail "validator accepted 3 concurrent crashes"
  | Error _ -> ());
  (* Same resource claimed by two concurrent faults. *)
  let clash =
    Chaos.Schedule.
      {
        horizon_us = 3_000_000;
        events =
          [
            { at_us = 100_000; fault = Crash_restart { replica = 1; down_us = 500_000 } };
            { at_us = 300_000; fault = Silence { replica = 1; duration_us = 500_000 } };
          ];
      }
  in
  (match Chaos.Schedule.validate ~profile ~budget clash with
  | Ok () -> Alcotest.fail "validator accepted two faults on one replica"
  | Error _ -> ());
  (* A fault that heals after the horizon. *)
  let late =
    Chaos.Schedule.
      {
        horizon_us = 1_000_000;
        events =
          [ { at_us = 800_000; fault = Daemon_churn { replica = 0; down_us = 400_000 } } ];
      }
  in
  match Chaos.Schedule.validate ~profile ~budget late with
  | Ok () -> Alcotest.fail "validator accepted a fault outliving the horizon"
  | Error _ -> ()

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
    Chaos.Schedule.
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
    Chaos.Schedule.
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
        ] );
      ( "oracles",
        [
          Alcotest.test_case "agreement" `Quick test_agreement_oracle;
          Alcotest.test_case "slot finality" `Quick test_slot_finality_oracle;
          Alcotest.test_case "sla" `Quick test_sla_oracle;
          Alcotest.test_case "quorum watchdog" `Quick test_quorum_watch_oracle;
          Alcotest.test_case "post-heal recovery" `Quick test_recovery_oracle;
          Alcotest.test_case "verdict combine" `Quick test_verdict_combine;
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
