(* Determinism regression for the hot-path optimisations.

   The zero-allocation work (measured-size codecs, frame-size
   memoization, ring-based fair queueing, the engine's closure-free
   periodic timers and lazy cancelled-entry purge, unboxed digest
   limbs) must be *unobservable*: the simulation trajectory, the
   confirmed count, the view count, and the per-kind wire-byte ledger
   have to be bit-identical to what the straightforward implementations
   produced. The golden values below were recorded from the E2
   fault-free workload (60 s virtual time, default config and seed) and
   verified identical on the pre-optimisation code; any drift means a
   semantic change snuck into the "pure performance" layer. *)

let duration_us = 60 * 1_000_000

let golden_confirmed = 5990
let golden_max_view = 0
let golden_events = 917_538

let golden_ledger =
  [
    ("replica_reply", 35940, 6397320);
    ("prime/po_aru", 62925, 4530600);
    ("prime/prepare", 57485, 3564070);
    ("prime/commit", 57480, 3563760);
    ("prime/po_request", 31450, 3365150);
    ("prime/preprepare", 9585, 2032020);
    ("client_update", 6000, 1932000);
    ("prime/checkpoint", 1380, 80040);
  ]

type snapshot = {
  confirmed : int;
  max_view : int;
  events : int;
  ledger : (string * int * int) list;
}

let run () =
  let sys, r = Spire.Scenarios.fault_free ~duration_us () in
  {
    confirmed = r.Spire.Scenarios.confirmed;
    max_view = r.Spire.Scenarios.max_view;
    events = Sim.Engine.processed (Spire.System.engine sys);
    ledger = Spire.System.wire_traffic sys;
  }

let ledger_testable =
  Alcotest.(list (triple string int int))

let test_golden_trajectory () =
  let s = run () in
  Alcotest.(check int) "confirmed" golden_confirmed s.confirmed;
  Alcotest.(check int) "max view" golden_max_view s.max_view;
  Alcotest.(check int) "events processed" golden_events s.events;
  Alcotest.check ledger_testable "per-kind wire ledger" golden_ledger s.ledger

let test_run_to_run_identical () =
  let a = run () and b = run () in
  Alcotest.(check int) "confirmed" a.confirmed b.confirmed;
  Alcotest.(check int) "events" a.events b.events;
  Alcotest.check ledger_testable "ledger" a.ledger b.ledger

(* The batched send path at max_batch = 1 must be *the* legacy path:
   explicitly setting the batching fields (with a deliberately odd
   deadline, which singleton mode must never consult) has to reproduce
   the golden trajectory and the per-kind wire-byte ledger bit for
   bit — same frames, same kinds, same byte totals, same event count. *)
let test_singleton_batching_identical () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.max_batch = 1;
      batch_delay_us = 77_777;
    }
  in
  let sys, r = Spire.Scenarios.fault_free ~config:cfg ~duration_us () in
  Alcotest.(check int) "confirmed" golden_confirmed r.Spire.Scenarios.confirmed;
  Alcotest.(check int) "max view" golden_max_view r.Spire.Scenarios.max_view;
  Alcotest.(check int) "events processed" golden_events
    (Sim.Engine.processed (Spire.System.engine sys));
  Alcotest.check ledger_testable "per-kind wire ledger" golden_ledger
    (Spire.System.wire_traffic sys)

(* With batching actually on, the telemetry invariant must survive:
   for every confirmed trace the six lifecycle phases — including the
   new batch-wait — sum exactly to the end-to-end span, and the
   deadline-flushed batches make batch-wait genuinely non-zero. *)
let lifecycle_phases =
  [
    Telemetry.Span.Batch_wait; Telemetry.Span.Ingress; Telemetry.Span.Preorder;
    Telemetry.Span.Ordering; Telemetry.Span.Execution; Telemetry.Span.Reply;
  ]

let test_batched_phase_reconciliation () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.max_batch = 8;
      batch_delay_us = 10_000;
      telemetry = true;
    }
  in
  let sys, r = Spire.Scenarios.fault_free ~config:cfg ~duration_us () in
  Alcotest.(check bool)
    "some updates confirmed under batching" true
    (r.Spire.Scenarios.confirmed > 0);
  let sink = Spire.System.telemetry sys in
  let by_trace = Hashtbl.create 1024 in
  List.iter
    (fun (s : Telemetry.Span.t) ->
      if s.Telemetry.Span.trace >= 0 then
        Hashtbl.replace by_trace s.Telemetry.Span.trace
          (s
          :: (try Hashtbl.find by_trace s.Telemetry.Span.trace
              with Not_found -> [])))
    (Telemetry.Sink.spans sink);
  let roots = ref 0 and batch_waits = ref 0 in
  Hashtbl.iter
    (fun _trace spans ->
      match
        List.find_opt
          (fun (s : Telemetry.Span.t) ->
            s.Telemetry.Span.phase = Telemetry.Span.End_to_end)
          spans
      with
      | None -> ()
      | Some root ->
        incr roots;
        let child phase =
          match
            List.find_opt
              (fun (s : Telemetry.Span.t) -> s.Telemetry.Span.phase = phase)
              spans
          with
          | Some s -> s
          | None ->
            Alcotest.failf "trace missing lifecycle phase %s"
              (Telemetry.Span.phase_name phase)
        in
        let sum =
          List.fold_left
            (fun acc phase ->
              let s = child phase in
              if Telemetry.Span.duration s > 0
                 && phase = Telemetry.Span.Batch_wait
              then incr batch_waits;
              acc + Telemetry.Span.duration s)
            0 lifecycle_phases
        in
        if sum <> Telemetry.Span.duration root then
          Alcotest.failf "phase sum %d <> end-to-end %d" sum
            (Telemetry.Span.duration root))
    by_trace;
  Alcotest.(check bool) "confirmed traces materialised" true (!roots > 0);
  Alcotest.(check bool)
    "batch-wait is non-zero for deadline-flushed batches" true
    (!batch_waits > 0)

(* Two more pinned trajectories: the batch path with a live policy
   swap, and the PBFT baseline. The first runs E8's shape at max_batch
   16 and shrinks the policy to 2 through the knob plane half-way, so
   buffered generations drain on the swap; the second runs the E4
   leader attack under PBFT, which no other golden covers. *)
let snapshot_of sys (r : Spire.Scenarios.latency_result) =
  {
    confirmed = r.Spire.Scenarios.confirmed;
    max_view = r.Spire.Scenarios.max_view;
    events = Sim.Engine.processed (Spire.System.engine sys);
    ledger = Spire.System.wire_traffic sys;
  }

let check_snapshot expected s =
  Alcotest.(check int) "confirmed" expected.confirmed s.confirmed;
  Alcotest.(check int) "max view" expected.max_view s.max_view;
  Alcotest.(check int) "events processed" expected.events s.events;
  Alcotest.check ledger_testable "per-kind wire ledger" expected.ledger s.ledger

let golden_batch_swap =
  {
    confirmed = 15_620;
    max_view = 0;
    events = 439_310;
    ledger =
      [
        ("replica_reply", 34512, 6143136);
        ("prime/po_batch", 22810, 5610840);
        ("replica_reply_batch", 15177, 4442829);
        ("client_batch", 4800, 2170320);
        ("prime/po_aru", 5470, 393840);
        ("prime/checkpoint", 3650, 211700);
        ("prime/po_request", 1920, 205440);
        ("prime/prepare", 2945, 182590);
        ("prime/commit", 2940, 182280);
        ("prime/preprepare", 495, 104940);
      ];
  }

let test_batch_swap_golden () =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.substations = 16;
      poll_interval_us = 1_000;
      max_batch = 16;
    }
  in
  let sys = Spire.System.create cfg in
  ignore
    (Sim.Engine.schedule_at (Spire.System.engine sys) ~time_us:500_000
       (fun () ->
         match
           Control.Knobs.request (Spire.System.knobs sys) ~now_us:500_000
             ~source:"test" (Control.Knobs.Set_max_batch 2)
         with
         | Ok () -> ()
         | Error e -> Alcotest.failf "Set_max_batch 2 refused: %s" e)
      : Sim.Engine.timer);
  Spire.System.start sys;
  let duration_us = 1_000_000 in
  Spire.System.run sys ~duration_us;
  Spire.System.assert_agreement sys;
  check_snapshot golden_batch_swap
    (snapshot_of sys (Spire.Scenarios.result_of sys ~duration_us))

let golden_pbft_attack =
  {
    confirmed = 770;
    max_view = 0;
    events = 164_981;
    ledger =
      [
        ("pbft/commit", 23100, 1432200);
        ("pbft/prepare", 23100, 1432200);
        ("replica_reply", 4620, 822360);
        ("pbft/preprepare", 3850, 427350);
        ("client_update", 800, 257600);
        ("pbft/request", 632, 64464);
        ("pbft/checkpoint", 180, 10440);
      ];
  }

let test_pbft_attack_golden () =
  let sys, r =
    Spire.Scenarios.leader_attack ~protocol:Spire.System.Pbft_protocol
      ~delay_us:200_000 ~attack_from_us:2_000_000 ~duration_us:8_000_000 ()
  in
  check_snapshot golden_pbft_attack (snapshot_of sys r)

(* The E2 golden never floods: it is shortest-path only, so it never
   runs the [Flooding] branch of the hop path or duplicate suppression.
   These E6-shape goldens pin those paths — constrained flooding under
   the 20x WAN delay attack, flooding over lossy WAN links (which adds
   the hop-by-hop ARQ leg), and [Redundant 2] under the same delay
   attack — with the same contract: confirmed count, engine event
   count, per-kind wire ledger, WAN boundary ledger, ARQ
   retransmissions and every {!Overlay.Net.stats} counter (submitted,
   delivered, duplicates suppressed, each drop cause, bytes) are
   bit-identical to the values recorded before the hop path was made
   allocation-lean (the two flood runs) and before duplicate
   suppression moved onto the shared frame (the whole stats record and
   the redundant run). The flood-over-loss record was re-pinned when a
   committed Prime slot became final: the old run re-voted two slots
   through the committed-slot overwrite path. *)
type flood_snapshot = {
  f_confirmed : int;
  f_events : int;
  f_ledger : (string * int * int) list;
  f_wan_frames : int;
  f_wan_bytes : int;
  f_retransmissions : int;
  f_stats : Overlay.Net.stats;
}

let flood_snapshot (sys, (r : Spire.Scenarios.latency_result)) =
  let net = Spire.System.net sys in
  {
    f_confirmed = r.Spire.Scenarios.confirmed;
    f_events = Sim.Engine.processed (Spire.System.engine sys);
    f_ledger = Spire.System.wire_traffic sys;
    f_wan_frames = Overlay.Net.wan_frames net;
    f_wan_bytes = Overlay.Net.wan_bytes net;
    f_retransmissions = Overlay.Net.retransmissions net;
    f_stats = Overlay.Net.stats net;
  }

let check_flood_golden expected s =
  Alcotest.(check int) "confirmed" expected.f_confirmed s.f_confirmed;
  Alcotest.(check int) "events processed" expected.f_events s.f_events;
  Alcotest.check ledger_testable "per-kind wire ledger" expected.f_ledger
    s.f_ledger;
  Alcotest.(check int) "WAN frames" expected.f_wan_frames s.f_wan_frames;
  Alcotest.(check int) "WAN bytes" expected.f_wan_bytes s.f_wan_bytes;
  Alcotest.(check int)
    "retransmissions" expected.f_retransmissions s.f_retransmissions;
  List.iter
    (fun (name, field) ->
      Alcotest.(check int) name (field expected.f_stats) (field s.f_stats))
    Overlay.Net.
      [
        ("submitted", fun st -> st.submitted);
        ("delivered", fun st -> st.delivered);
        ("duplicates suppressed", fun st -> st.duplicates_suppressed);
        ("dropped queue full", fun st -> st.dropped_queue_full);
        ("dropped link down", fun st -> st.dropped_link_down);
        ("dropped no route", fun st -> st.dropped_no_route);
        ("dropped ARQ exhausted", fun st -> st.dropped_arq_exhausted);
        ("dropped retired src", fun st -> st.dropped_retired_src);
        ("junk frames", fun st -> st.junk_frames);
        ("submitted bytes", fun st -> st.submitted_bytes);
        ("delivered bytes", fun st -> st.delivered_bytes);
        ("dropped bytes", fun st -> st.dropped_bytes);
      ]

let flood_duration_us = 4_000_000

let golden_flood_attack =
  {
    f_confirmed = 386;
    f_events = 1_685_086;
    f_ledger =
      [
        ("replica_reply", 2303, 409934);
        ("prime/po_aru", 4150, 298800);
        ("prime/prepare", 4220, 261640);
        ("prime/commit", 4215, 261330);
        ("prime/po_request", 2415, 258405);
        ("prime/preprepare", 715, 151580);
        ("client_update", 400, 128800);
        ("prime/checkpoint", 85, 4930);
        ("prime/suspect", 10, 500);
      ];
    f_wan_frames = 800_738;
    f_wan_bytes = 76_833_069;
    f_retransmissions = 0;
    f_stats =
      {
        Overlay.Net.submitted = 18_513;
        delivered = 18_152;
        duplicates_suppressed = 542_732;
        dropped_queue_full = 0;
        dropped_link_down = 0;
        dropped_no_route = 0;
        dropped_arq_exhausted = 0;
        dropped_retired_src = 0;
        junk_frames = 0;
        submitted_bytes = 1_775_919;
        delivered_bytes = 1_742_555;
        dropped_bytes = 0;
      };
  }

let golden_flood_loss =
  {
    f_confirmed = 384;
    f_events = 1_896_834;
    f_ledger =
      [
        ("prime/po_request", 3800, 406600);
        ("prime/po_aru", 4895, 352440);
        ("prime/prepare", 5300, 328600);
        ("prime/commit", 5220, 323640);
        ("replica_reply", 1636, 291208);
        ("prime/slot_reply", 1237, 257296);
        ("prime/preprepare", 1125, 238500);
        ("client_update", 400, 128800);
        ("prime/slot_request", 250, 12500);
        ("prime/checkpoint", 60, 3480);
        ("prime/recon_request", 50, 2600);
        ("prime/suspect", 10, 500);
      ];
    f_wan_frames = 905_867;
    f_wan_bytes = 88_752_528;
    f_retransmissions = 6_919;
    f_stats =
      {
        Overlay.Net.submitted = 23_983;
        delivered = 19_144;
        duplicates_suppressed = 578_073;
        dropped_queue_full = 94_946;
        dropped_link_down = 0;
        dropped_no_route = 0;
        dropped_arq_exhausted = 0;
        dropped_retired_src = 0;
        junk_frames = 0;
        submitted_bytes = 2_346_164;
        delivered_bytes = 1_863_393;
        dropped_bytes = 9_202_348;
      };
  }

let golden_redundant_attack =
  {
    f_confirmed = 386;
    f_events = 177_265;
    f_ledger =
      [
        ("replica_reply", 2299, 409222);
        ("prime/po_aru", 4270, 307440);
        ("prime/prepare", 4925, 305350);
        ("prime/commit", 4920, 305040);
        ("prime/po_request", 2415, 258405);
        ("prime/preprepare", 835, 177020);
        ("client_update", 400, 128800);
        ("prime/recon_reply", 684, 73188);
        ("prime/recon_request", 715, 37180);
        ("prime/checkpoint", 80, 4640);
        ("prime/suspect", 10, 500);
      ];
    f_wan_frames = 57_544;
    f_wan_bytes = 5_533_063;
    f_retransmissions = 0;
    f_stats =
      {
        Overlay.Net.submitted = 21_553;
        delivered = 21_068;
        duplicates_suppressed = 20_831;
        dropped_queue_full = 0;
        dropped_link_down = 0;
        dropped_no_route = 0;
        dropped_arq_exhausted = 0;
        dropped_retired_src = 0;
        junk_frames = 0;
        submitted_bytes = 2_006_785;
        delivered_bytes = 1_964_541;
        dropped_bytes = 0;
      };
  }

let test_flood_attack_golden ?tweak () =
  check_flood_golden golden_flood_attack
    (flood_snapshot
       (Spire.Scenarios.link_degradation ?tweak ~mode:Overlay.Net.Flood
          ~factor:20. ~attack_from_us:1_500_000 ~duration_us:flood_duration_us
          ()))

let test_redundant_attack_golden () =
  check_flood_golden golden_redundant_attack
    (flood_snapshot
       (Spire.Scenarios.link_degradation ~mode:(Overlay.Net.Redundant 2)
          ~factor:20. ~attack_from_us:1_500_000 ~duration_us:flood_duration_us
          ()))

let test_flood_loss_golden ?tweak () =
  check_flood_golden golden_flood_loss
    (flood_snapshot
       (Spire.Scenarios.packet_loss ?tweak ~mode:Overlay.Net.Flood ~loss:0.05
          ~duration_us:flood_duration_us ()))

(* Telemetry observes and never steers: with every frame traced, the
   queue-wait, transmit, ARQ and propagation spans open and close on the
   hop path, yet both flood runs reproduce their untraced records
   exactly, engine event count included. *)
let telemetry_on c = { c with Spire.System.telemetry = true }

(* State transfer ships the adopted master state as [transfer_chunk]
   frames along two paths: a restored site's replicas resynchronise
   from f+1 vouching peers of their own epoch, and a replica admitted
   by a reconfiguration joins from f+1 members of the new epoch. The E2
   and E6 goldens never transfer state (the flood-loss one reaches only
   the fall-behind hook), so these two runs pin both paths: chunk
   frames and bytes, confirmed count and engine event count. *)
type transfer_snapshot = {
  t_chunk_frames : int;
  t_chunk_bytes : int;
  t_confirmed : int;
  t_events : int;
}

let transfer_snapshot sys ~confirmed =
  let frames, bytes =
    match
      List.find_opt
        (fun (kind, _, _) -> kind = "transfer_chunk")
        (Spire.System.wire_traffic sys)
    with
    | Some (_, frames, bytes) -> (frames, bytes)
    | None -> (0, 0)
  in
  {
    t_chunk_frames = frames;
    t_chunk_bytes = bytes;
    t_confirmed = confirmed;
    t_events = Sim.Engine.processed (Spire.System.engine sys);
  }

let check_transfer_golden expected s =
  Alcotest.(check int) "transfer_chunk frames" expected.t_chunk_frames
    s.t_chunk_frames;
  Alcotest.(check int) "transfer_chunk bytes" expected.t_chunk_bytes
    s.t_chunk_bytes;
  Alcotest.(check int) "confirmed" expected.t_confirmed s.t_confirmed;
  Alcotest.(check int) "events processed" expected.t_events s.t_events

let test_site_restore_transfer_golden () =
  let sys, r =
    Spire.Scenarios.site_failure ~site:0 ~fail_at_us:2_000_000
      ~restore_at_us:(Some 5_000_000) ~duration_us:8_000_000 ()
  in
  check_transfer_golden
    { t_chunk_frames = 2; t_chunk_bytes = 892; t_confirmed = 790;
      t_events = 107_826 }
    (transfer_snapshot sys ~confirmed:r.Spire.Scenarios.confirmed)

let test_reconfig_join_transfer_golden () =
  let sys, r = Spire.Scenarios.reconfiguration ~duration_us:30_000_000 () in
  check_transfer_golden
    { t_chunk_frames = 2; t_chunk_bytes = 894; t_confirmed = 2992;
      t_events = 345_888 }
    (transfer_snapshot sys
       ~confirmed:r.Spire.Scenarios.base.Spire.Scenarios.confirmed)

(* None of the goldens above runs the field layer. This one pins the
   quick-scale E12 10,000-device fleet: confirmed events and writes,
   link churn, dropped duplicates, the field/advert and field/report
   wire rows and the engine event count. A restructuring of the fleet
   path (device storage, scan loop) must leave them bit-identical; one
   extra draw from a field RNG already shifts them. *)
let test_fleet_golden () =
  let sys, _ =
    Spire.Scenarios.fleet ~concentrators:4 ~devices:10_000
      ~duration_us:10_000_000 ()
  in
  let s = Spire.System.fleet_stats sys in
  Alcotest.(check int) "confirmed events" 181_792
    s.Field.Concentrator.confirmed_events;
  Alcotest.(check int) "confirmed writes" 36 s.confirmed_writes;
  Alcotest.(check int) "churn" 14_734 s.churn;
  Alcotest.(check int) "dups dropped" 2_054 s.dups_dropped;
  Alcotest.check ledger_testable "field wire rows"
    [ ("field/report", 155_662, 9_487_850); ("field/advert", 12_315, 751_215) ]
    (List.filter
       (fun (kind, _, _) -> kind = "field/advert" || kind = "field/report")
       (Spire.System.wire_traffic sys));
  Alcotest.(check int) "events processed" 170_323
    (Sim.Engine.processed (Spire.System.engine sys))

let () =
  Alcotest.run "perf"
    [
      ( "determinism",
        [
          Alcotest.test_case "E2 golden trajectory and byte ledger" `Slow
            test_golden_trajectory;
          Alcotest.test_case "run-to-run bit-identical" `Slow
            test_run_to_run_identical;
          Alcotest.test_case "max_batch=1 ledger bit-identical" `Slow
            test_singleton_batching_identical;
          Alcotest.test_case "E6 flood-under-attack golden" `Slow
            test_flood_attack_golden;
          Alcotest.test_case "E6b flood-over-loss golden" `Slow
            test_flood_loss_golden;
          Alcotest.test_case "E6 flood-under-attack golden (telemetry on)"
            `Slow (test_flood_attack_golden ~tweak:telemetry_on);
          Alcotest.test_case "E6b flood-over-loss golden (telemetry on)" `Slow
            (test_flood_loss_golden ~tweak:telemetry_on);
          Alcotest.test_case "E6 redundant-2 under attack golden" `Slow
            test_redundant_attack_golden;
          Alcotest.test_case "site-restore state-transfer golden" `Slow
            test_site_restore_transfer_golden;
          Alcotest.test_case "reconfig-join state-transfer golden" `Slow
            test_reconfig_join_transfer_golden;
          Alcotest.test_case "E12 10k fleet golden" `Slow test_fleet_golden;
          Alcotest.test_case "batch swap golden" `Slow test_batch_swap_golden;
          Alcotest.test_case "PBFT leader-attack golden" `Slow
            test_pbft_attack_golden;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batch-wait phase sums reconcile exactly" `Slow
            test_batched_phase_reconciliation;
        ] );
    ]
