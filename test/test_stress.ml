(* Randomized stress tests: agreement must survive arbitrary (bounded)
   fault schedules. Each qcheck case derives a fault script from the
   generated seed — crashes, restarts, silences, leader delays, link
   kills — always within the f=1/k=1 budget, runs the full system, and
   asserts that all correct replicas agree and the service made
   progress. *)

let quorum_6 = Bft.Quorum.create ~n:6 ~f:1 ~k:1

let fast_prime quorum =
  {
    (Prime.Replica.default_config quorum) with
    Prime.Replica.aru_interval_us = 2_000;
    proposal_interval_us = 5_000;
    tat_threshold_us = 100_000;
    viewchange_timeout_us = 400_000;
    watchdog_interval_us = 10_000;
    checkpoint_interval = 16;
  }

(* One stress run over the in-memory cluster: a scripted adversary
   derived from [seed] misbehaves within budget while clients submit. *)
let run_cluster_stress seed =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
  let rng = Sim.Engine.rng engine in
  let n = 6 in
  let cluster =
    Bft.Cluster.create ~engine ~n
      ~latency_us:(fun _ _ -> 500 + Sim.Rng.int rng 2_000)
      ~make:(fun _ env ->
        let r = Prime.Replica.create (fast_prime quorum_6) env ~execute:(fun _ _ -> ()) in
        Prime.Replica.start r;
        r)
      ~deliver:(fun r ~from msg -> Prime.Replica.handle r ~from msg)
  in
  (* Adversary: pick ONE victim replica (f=1 budget) and a misbehaviour. *)
  let victim = Sim.Rng.int rng n in
  (* Submissions: 40 updates over 2 virtual seconds. Origins avoid the
     victim (clients fail over away from unresponsive origins; the
     cluster harness has no endpoint retry layer, so model the outcome
     directly). Client sequences are contiguous from 1 per client, as
     the endpoint layer guarantees. *)
  for i = 1 to 40 do
    let origin = (victim + 1 + Sim.Rng.int rng (n - 1)) mod n in
    let time_us = 10_000 + Sim.Rng.int rng 2_000_000 in
    ignore
      (Sim.Engine.schedule_at engine ~time_us (fun () ->
           Prime.Replica.submit
             (Bft.Cluster.replica cluster origin)
             (Bft.Update.create ~client:(i mod 3)
                ~client_seq:(((i - 1) / 3) + 1)
                ~operation:(Printf.sprintf "op%d" i)
                ~submitted_us:time_us))
        : Sim.Engine.timer)
  done;
  let misbehaviour = Sim.Rng.int rng 4 in
  let faults = Prime.Replica.faults (Bft.Cluster.replica cluster victim) in
  ignore
    (Sim.Engine.schedule_at engine
       ~time_us:(200_000 + Sim.Rng.int rng 500_000)
       (fun () ->
         match misbehaviour with
         | 0 -> faults.Bft.Faults.crashed <- true
         | 1 -> faults.Bft.Faults.silent <- true
         | 2 -> faults.Bft.Faults.proposal_delay_us <- 300_000
         | _ ->
           let drop_target = Sim.Rng.int rng n in
           faults.Bft.Faults.drop_to <- (fun r -> r = drop_target))
      : Sim.Engine.timer);
  (* Sometimes the victim recovers honestly later. *)
  if Sim.Rng.bool rng then
    ignore
      (Sim.Engine.schedule_at engine
         ~time_us:(1_200_000 + Sim.Rng.int rng 500_000)
         (fun () -> Bft.Faults.reset faults)
        : Sim.Engine.timer);
  Sim.Engine.run engine ~until_us:12_000_000;
  (* Correct replicas: everyone but (possibly) the victim. *)
  let correct =
    List.filter
      (fun r ->
        let f = Prime.Replica.faults (Bft.Cluster.replica cluster r) in
        (not f.Bft.Faults.crashed) && not (Bft.Faults.is_byzantine f))
      (List.init n Fun.id)
  in
  match correct with
  | [] -> true
  | first :: rest ->
    let l0 = Prime.Replica.exec_log (Bft.Cluster.replica cluster first) in
    List.for_all
      (fun r ->
        let li = Prime.Replica.exec_log (Bft.Cluster.replica cluster r) in
        Bft.Exec_log.prefix_equal l0 li
        && Bft.Exec_log.length li = Bft.Exec_log.length l0)
      rest
    && Bft.Exec_log.length l0 = 40

let prop_prime_agreement_under_random_faults =
  QCheck.Test.make ~count:25 ~name:"prime: agreement + progress under any 1-replica fault"
    QCheck.(int_bound 1_000_000)
    run_cluster_stress

(* Full-system stress: random single-fault schedule over the overlay
   deployment, checked with System.assert_agreement (which also compares
   master state digests). *)
let run_system_stress seed =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.substations = 3;
      poll_interval_us = 100_000;
      seed = Int64.of_int (seed * 7919);
    }
  in
  let sys = Spire.System.create cfg in
  Spire.System.start sys;
  let engine = Spire.System.engine sys in
  let rng = Sim.Engine.rng engine in
  let n = Spire.System.replica_count sys in
  let victim = Sim.Rng.int rng n in
  let action = Sim.Rng.int rng 3 in
  ignore
    (Sim.Engine.schedule_at engine ~time_us:(500_000 + Sim.Rng.int rng 1_000_000)
       (fun () ->
         match action with
         | 0 -> Spire.System.crash_replica sys victim
         | 1 -> (Spire.System.faults sys victim).Bft.Faults.silent <- true
         | _ ->
           let slow = Attack.Schedule.Leader_delay { delay_us = 400_000; duration_us = 1 } in
           ignore (Spire.Injector.start sys slow : Attack.Schedule.fault))
      : Sim.Engine.timer);
  if Sim.Rng.bool rng then
    ignore
      (Sim.Engine.schedule_at engine ~time_us:4_000_000 (fun () ->
           Spire.System.restore_replica sys victim;
           Bft.Faults.reset (Spire.System.faults sys victim))
        : Sim.Engine.timer);
  Spire.System.run sys ~duration_us:10_000_000;
  Spire.System.assert_agreement sys;
  (* Progress: the vast majority of polls must confirm despite the fault. *)
  let polls = 3 * 100 in
  Spire.System.confirmed_updates sys > polls * 6 / 10

let prop_system_agreement_under_random_faults =
  QCheck.Test.make ~count:10
    ~name:"full system: agreement + progress under random fault schedules"
    QCheck.(int_bound 1_000_000)
    run_system_stress

(* Random link kills within connectivity: kill up to 2 WAN links; the
   overlay must keep delivering (reroute) and replicas must agree. *)
let run_link_stress seed =
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.substations = 3;
      seed = Int64.of_int (seed * 104729);
    }
  in
  let sys = Spire.System.create cfg in
  Spire.System.start sys;
  let engine = Spire.System.engine sys in
  let rng = Sim.Engine.rng engine in
  let net = Spire.System.net sys in
  let topo = Overlay.Net.topology net in
  let n = Spire.System.replica_count sys in
  (* Candidate WAN links between replica sites. *)
  let wan_links =
    List.filter
      (fun l ->
        l.Overlay.Topology.endpoint_a < n
        && l.Overlay.Topology.endpoint_b < n
        && Overlay.Topology.site_of topo l.Overlay.Topology.endpoint_a
           <> Overlay.Topology.site_of topo l.Overlay.Topology.endpoint_b)
      (Overlay.Topology.links topo)
    |> Array.of_list
  in
  Sim.Rng.shuffle rng wan_links;
  let kills = min 2 (Array.length wan_links) in
  for i = 0 to kills - 1 do
    let l = wan_links.(i) in
    ignore
      (Sim.Engine.schedule_at engine
         ~time_us:(500_000 + Sim.Rng.int rng 1_000_000)
         (fun () ->
           Overlay.Net.kill_link net l.Overlay.Topology.endpoint_a
             l.Overlay.Topology.endpoint_b)
        : Sim.Engine.timer)
  done;
  Spire.System.run sys ~duration_us:8_000_000;
  Spire.System.assert_agreement sys;
  Spire.System.confirmed_updates sys > 150

let prop_system_survives_link_kills =
  QCheck.Test.make ~count:10
    ~name:"full system: survives killing up to 2 WAN links"
    QCheck.(int_bound 1_000_000)
    run_link_stress

(* Sustained packet loss on all inter-site links: ARQ plus protocol
   reconciliation must preserve agreement. *)
let run_loss_stress seed =
  let loss = 0.1 +. (float_of_int (seed mod 3) /. 10.) in
  let cfg =
    {
      (Spire.System.default_config ()) with
      Spire.System.substations = 3;
      seed = Int64.of_int (seed * 31);
    }
  in
  let sys = Spire.System.create cfg in
  let net = Spire.System.net sys in
  let topo = Overlay.Net.topology net in
  let n = Spire.System.replica_count sys in
  List.iter
    (fun l ->
      let a = l.Overlay.Topology.endpoint_a
      and b = l.Overlay.Topology.endpoint_b in
      if
        a < n && b < n
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_loss_probability net a b loss)
    (Overlay.Topology.links topo);
  Spire.System.start sys;
  Spire.System.run sys ~duration_us:10_000_000;
  Spire.System.assert_agreement sys;
  (* Loss costs latency, not correctness; most updates still confirm. *)
  Spire.System.confirmed_updates sys > 150

let prop_system_agreement_under_packet_loss =
  QCheck.Test.make ~count:8
    ~name:"full system: agreement under 10-40% WAN packet loss"
    QCheck.(int_bound 1_000_000)
    run_loss_stress

let () =
  Alcotest.run "stress"
    [
      ( "randomized",
        [
          QCheck_alcotest.to_alcotest prop_prime_agreement_under_random_faults;
          QCheck_alcotest.to_alcotest prop_system_agreement_under_random_faults;
          QCheck_alcotest.to_alcotest prop_system_survives_link_kills;
          QCheck_alcotest.to_alcotest prop_system_agreement_under_packet_loss;
        ] );
    ]
