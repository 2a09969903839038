(* Tests for the attack library: intrusion campaigns and DoS drivers. *)

module C = Attack.Campaign
module D = Recovery.Diversity

let campaign_config =
  {
    C.exploit_development_us = 100_000;
    attempt_interval_us = 20_000;
  }

let make_campaign ?(variants = 4) ?(n = 6) ?(config = campaign_config) engine =
  let rng = Sim.Rng.create 7L in
  let diversity = D.create ~variants ~n ~rng:(Sim.Rng.create 8L) in
  let compromised_log = ref [] in
  let cleansed_log = ref [] in
  let campaign =
    C.create ~engine ~rng ~diversity ~config
      ~on_compromise:(fun r -> compromised_log := r :: !compromised_log)
      ~on_cleanse:(fun r -> cleansed_log := r :: !cleansed_log)
  in
  (campaign, diversity, compromised_log, cleansed_log)

let test_campaign_compromises_matching_variant () =
  let engine = Sim.Engine.create () in
  let campaign, diversity, compromised_log, _ = make_campaign engine in
  C.start campaign;
  Sim.Engine.run engine ~until_us:150_000;
  (* After the first exploit lands, the largest variant group is
     compromised. *)
  Alcotest.(check bool) "someone compromised" true (!compromised_log <> []);
  List.iter
    (fun r ->
      let v = D.variant_of diversity r in
      let others = C.compromised campaign in
      Alcotest.(check bool) "compromised replica is on a hit variant" true
        (List.exists (fun r' -> D.variant_of diversity r' = v) others))
    !compromised_log

let test_campaign_without_diversity_takes_everything () =
  let engine = Sim.Engine.create () in
  let campaign, _, _, _ = make_campaign ~variants:1 engine in
  C.start campaign;
  Sim.Engine.run engine ~until_us:200_000;
  (* One exploit applies to every replica. *)
  Alcotest.(check int) "all replicas compromised" 6 (C.compromised_count campaign);
  Alcotest.(check int) "max simultaneous" 6 (C.max_simultaneous campaign)

let test_campaign_rejuvenation_cleanses () =
  let engine = Sim.Engine.create () in
  let campaign, diversity, _, cleansed_log = make_campaign ~variants:1 engine in
  C.start campaign;
  Sim.Engine.run engine ~until_us:200_000;
  let victim = List.hd (C.compromised campaign) in
  ignore (D.rejuvenate diversity victim : int);
  C.notify_rejuvenated campaign victim;
  Alcotest.(check bool) "victim cleansed" true
    (not (List.mem victim (C.compromised campaign)));
  Alcotest.(check (list int)) "cleanse callback" [ victim ] !cleansed_log

let test_campaign_recovering_replicas_protected () =
  let engine = Sim.Engine.create () in
  let campaign, _, _, _ = make_campaign ~variants:1 engine in
  C.set_recovering campaign 0 true;
  C.start campaign;
  Sim.Engine.run engine ~until_us:200_000;
  Alcotest.(check bool) "replica 0 untouched while down" true
    (not (List.mem 0 (C.compromised campaign)));
  (* Once back up, the next attempt takes it. *)
  C.set_recovering campaign 0 false;
  Sim.Engine.run engine ~until_us:400_000;
  Alcotest.(check bool) "replica 0 compromised after return" true
    (List.mem 0 (C.compromised campaign))

let test_campaign_stop_halts_attempts () =
  let engine = Sim.Engine.create () in
  let campaign, _, _, _ = make_campaign ~variants:1 engine in
  C.start campaign;
  C.stop campaign;
  Sim.Engine.run engine ~until_us:500_000;
  Alcotest.(check int) "no compromises after stop" 0 (C.compromised_count campaign)

(* ------------------------------------------------------------------ *)
(* DoS driver *)

type junk_probe = Probe

let test_dos_flood_consumes_capacity () =
  let engine = Sim.Engine.create () in
  let topo = Overlay.Topology.create ~nodes:2 in
  Overlay.Topology.add_link topo ~a:0 ~b:1 ~latency_us:100
    ~bandwidth_bps:100_000;
  let net : junk_probe Overlay.Net.t = Overlay.Net.create engine topo () in
  let dos = Attack.Dos.create ~engine in
  let handle =
    Attack.Dos.flood dos ~net ~src:0 ~dst:1 ~frame_bytes:1_000
      ~frames_per_burst:5 ~burst_interval_us:50_000
  in
  Alcotest.(check int) "one active attack" 1 (Attack.Dos.active dos);
  Sim.Engine.run engine ~until_us:1_000_000;
  let stats = Overlay.Net.stats net in
  Alcotest.(check bool) "junk generated" true (stats.Overlay.Net.junk_frames >= 90);
  Attack.Dos.stop dos handle;
  let junk_before = (Overlay.Net.stats net).Overlay.Net.junk_frames in
  Sim.Engine.run engine ~until_us:2_000_000;
  Alcotest.(check int) "stopped" junk_before
    (Overlay.Net.stats net).Overlay.Net.junk_frames

let test_dos_control_traffic_survives_bulk_flood () =
  let engine = Sim.Engine.create () in
  let topo = Overlay.Topology.create ~nodes:3 in
  (* Attacker at node 2 floods node 1 through the same link used by
     node 0's control traffic. *)
  Overlay.Topology.add_link topo ~a:0 ~b:1 ~latency_us:1_000
    ~bandwidth_bps:50_000;
  Overlay.Topology.add_link topo ~a:2 ~b:0 ~latency_us:100
    ~bandwidth_bps:1_000_000;
  let net : junk_probe Overlay.Net.t = Overlay.Net.create engine topo () in
  let dos = Attack.Dos.create ~engine in
  ignore
    (Attack.Dos.flood dos ~net ~src:2 ~dst:1 ~frame_bytes:2_000
       ~frames_per_burst:10 ~burst_interval_us:20_000
      : int);
  let delivered = ref [] in
  Overlay.Net.set_handler net 1 (fun d ->
      delivered := (d.Overlay.Net.delivered_us - d.Overlay.Net.sent_us) :: !delivered);
  (* Send control frames periodically during the flood. *)
  ignore
    (Sim.Engine.periodic engine ~interval_us:100_000 (fun () ->
         Overlay.Net.send net ~src:0 ~dst:1 ~size_bytes:200
           ~mode:Overlay.Net.Shortest Probe));
  Sim.Engine.run engine ~until_us:2_000_000;
  Alcotest.(check bool) "control frames delivered" true
    (List.length !delivered >= 15);
  (* Control class preempts bulk junk: waits at most one junk frame's
     serialisation (2000B @ 50kB/s = 40ms) plus its own. *)
  List.iter
    (fun lat -> Alcotest.(check bool) "latency bounded during flood" true (lat < 60_000))
    !delivered

let test_dos_control_class_flood_fairness () =
  (* Even when the attacker marks junk as Control, round-robin source
     fairness bounds the victim's added delay to ~one attacker frame
     per own frame. *)
  let engine = Sim.Engine.create () in
  let topo = Overlay.Topology.create ~nodes:3 in
  Overlay.Topology.add_link topo ~a:0 ~b:1 ~latency_us:1_000
    ~bandwidth_bps:50_000;
  Overlay.Topology.add_link topo ~a:2 ~b:0 ~latency_us:100
    ~bandwidth_bps:1_000_000;
  let net : junk_probe Overlay.Net.t = Overlay.Net.create engine topo () in
  let dos = Attack.Dos.create ~engine in
  ignore
    (Attack.Dos.flood_control_class dos ~net ~src:2 ~dst:1 ~frame_bytes:1_000
       ~frames_per_burst:5 ~burst_interval_us:50_000
      : int);
  let delivered = ref [] in
  Overlay.Net.set_handler net 1 (fun d ->
      delivered := (d.Overlay.Net.delivered_us - d.Overlay.Net.sent_us) :: !delivered);
  ignore
    (Sim.Engine.periodic engine ~interval_us:100_000 (fun () ->
         Overlay.Net.send net ~src:0 ~dst:1 ~size_bytes:200
           ~mode:Overlay.Net.Shortest Probe));
  Sim.Engine.run engine ~until_us:2_000_000;
  Alcotest.(check bool) "still delivered" true (List.length !delivered >= 15);
  (* Fair share: the victim alternates with the attacker, so waits are
     bounded by a couple of junk serialisations (~20ms each), not the
     full backlog. *)
  List.iter
    (fun lat ->
      Alcotest.(check bool) "fairness bounds delay" true (lat < 100_000))
    !delivered

let () =
  Alcotest.run "attack"
    [
      ( "campaign",
        [
          Alcotest.test_case "compromises matching variant" `Quick
            test_campaign_compromises_matching_variant;
          Alcotest.test_case "no diversity -> total compromise" `Quick
            test_campaign_without_diversity_takes_everything;
          Alcotest.test_case "rejuvenation cleanses" `Quick
            test_campaign_rejuvenation_cleanses;
          Alcotest.test_case "recovering replicas protected" `Quick
            test_campaign_recovering_replicas_protected;
          Alcotest.test_case "stop" `Quick test_campaign_stop_halts_attempts;
        ] );
      ( "dos",
        [
          Alcotest.test_case "flood consumes capacity" `Quick
            test_dos_flood_consumes_capacity;
          Alcotest.test_case "control survives bulk flood" `Quick
            test_dos_control_traffic_survives_bulk_flood;
          Alcotest.test_case "fairness vs control-class flood" `Quick
            test_dos_control_class_flood_fairness;
        ] );
    ]
