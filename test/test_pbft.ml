(* Integration tests for the PBFT baseline replica. *)

let quorum_f1 = Bft.Quorum.create ~n:4 ~f:1 ~k:0

let fast_config quorum =
  {
    (Pbft.Replica.default_config quorum) with
    Pbft.Replica.request_timeout_us = 500_000;
    viewchange_timeout_us = 1_000_000;
    watchdog_interval_us = 50_000;
    checkpoint_interval = 8;
  }

type harness = {
  engine : Sim.Engine.t;
  cluster : (Pbft.Replica.t, Pbft.Msg.t) Bft.Cluster.t;
  executed : (int, (Bft.Types.seqno * Bft.Update.t) list ref) Hashtbl.t;
}

let make_harness ?(n = 4) ?(quorum = quorum_f1) ?(latency_us = 1_000) () =
  let engine = Sim.Engine.create ~seed:42L () in
  let executed = Hashtbl.create 7 in
  let cluster =
    Bft.Cluster.create ~engine ~n
      ~latency_us:(fun _ _ -> latency_us)
      ~make:(fun i env ->
        let log = ref [] in
        Hashtbl.replace executed i log;
        let r =
          Pbft.Replica.create (fast_config quorum) env
            ~execute:(fun seq u -> log := (seq, u) :: !log)
        in
        Pbft.Replica.start r;
        r)
      ~deliver:(fun r ~from msg -> Pbft.Replica.handle r ~from msg)
  in
  { engine; cluster; executed }

let update ~client ~seq =
  Bft.Update.create ~client ~client_seq:seq
    ~operation:(Printf.sprintf "op-%d-%d" client seq)
    ~submitted_us:0

let submit_at h ~time_us ~replica u =
  ignore
    (Sim.Engine.schedule_at h.engine ~time_us (fun () ->
         Pbft.Replica.submit (Bft.Cluster.replica h.cluster replica) u)
      : Sim.Engine.timer)

let executed_ops h i = List.rev !(Hashtbl.find h.executed i)

let check_all_executed_equally h ~expected_count =
  let reference = executed_ops h 0 in
  Alcotest.(check int) "replica 0 executed count" expected_count
    (List.length reference);
  let n = Bft.Cluster.size h.cluster in
  for i = 1 to n - 1 do
    let other = executed_ops h i in
    Alcotest.(check int)
      (Printf.sprintf "replica %d executed count" i)
      (List.length reference) (List.length other);
    List.iter2
      (fun (s1, u1) (s2, u2) ->
        Alcotest.(check int) "same seq" s1 s2;
        Alcotest.(check bool) "same update" true (Bft.Update.equal u1 u2))
      reference other
  done;
  (* Digest-chain safety invariant. *)
  let log0 = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster 0) in
  for i = 1 to n - 1 do
    let li = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster i) in
    Alcotest.(check bool)
      (Printf.sprintf "prefix-equal 0 vs %d" i)
      true
      (Bft.Exec_log.prefix_equal log0 li)
  done

let test_fault_free () =
  let h = make_harness () in
  for i = 1 to 20 do
    submit_at h ~time_us:(i * 10_000) ~replica:0 (update ~client:7 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:5_000_000;
  check_all_executed_equally h ~expected_count:20;
  Alcotest.(check int) "no view change" 0
    (Pbft.Replica.view (Bft.Cluster.replica h.cluster 1))

let test_submit_to_backup () =
  let h = make_harness () in
  (* Requests hit a backup, which must forward to the leader. *)
  for i = 1 to 10 do
    submit_at h ~time_us:(i * 10_000) ~replica:2 (update ~client:3 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:5_000_000;
  check_all_executed_equally h ~expected_count:10

let test_leader_crash_triggers_view_change () =
  let h = make_harness () in
  let r0 = Bft.Cluster.replica h.cluster 0 in
  (Pbft.Replica.faults r0).Bft.Faults.crashed <- true;
  for i = 1 to 5 do
    submit_at h ~time_us:(100_000 + (i * 10_000)) ~replica:1
      (update ~client:1 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:20_000_000;
  (* Replicas 1..3 must have moved past view 0 and executed everything. *)
  let v1 = Pbft.Replica.view (Bft.Cluster.replica h.cluster 1) in
  Alcotest.(check bool) "view advanced" true (v1 >= 1);
  let ops = executed_ops h 1 in
  Alcotest.(check int) "executed after view change" 5 (List.length ops);
  (* Correct replicas agree. *)
  let l1 = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster 1) in
  for i = 2 to 3 do
    let li = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster i) in
    Alcotest.(check bool) "agreement" true (Bft.Exec_log.prefix_equal l1 li);
    Alcotest.(check int) "same length" (Bft.Exec_log.length l1)
      (Bft.Exec_log.length li)
  done

let test_slow_leader_is_not_replaced () =
  (* The baseline's weakness: delay just under the timeout keeps the
     leader in place while latency balloons. *)
  let h = make_harness () in
  let r0 = Bft.Cluster.replica h.cluster 0 in
  (Pbft.Replica.faults r0).Bft.Faults.proposal_delay_us <- 400_000;
  (* timeout is 500_000 *)
  for i = 1 to 5 do
    submit_at h ~time_us:(i * 600_000) ~replica:0 (update ~client:2 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:10_000_000;
  check_all_executed_equally h ~expected_count:5;
  Alcotest.(check int) "leader kept the role" 0
    (Pbft.Replica.view (Bft.Cluster.replica h.cluster 1))

let test_equivocating_leader_no_divergence () =
  let h = make_harness () in
  let r0 = Bft.Cluster.replica h.cluster 0 in
  (Pbft.Replica.faults r0).Bft.Faults.equivocate <- true;
  for i = 1 to 5 do
    submit_at h ~time_us:(i * 10_000) ~replica:1 (update ~client:9 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:30_000_000;
  (* Correct replicas never diverge; eventually a view change removes
     the equivocator and the updates execute. *)
  let l1 = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster 1) in
  for i = 2 to 3 do
    let li = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster i) in
    Alcotest.(check bool) "no divergence" true (Bft.Exec_log.prefix_equal l1 li)
  done;
  Alcotest.(check bool) "view advanced past equivocator" true
    (Pbft.Replica.view (Bft.Cluster.replica h.cluster 1) >= 1);
  Alcotest.(check int) "all executed at replica 1" 5 (Bft.Exec_log.length l1)

let test_checkpoint_garbage_collection () =
  let h = make_harness () in
  for i = 1 to 40 do
    submit_at h ~time_us:(i * 5_000) ~replica:0 (update ~client:4 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:10_000_000;
  check_all_executed_equally h ~expected_count:40

(* Checkpoint certificates at or below the stable one are dropped:
   after ten checkpoints (80 executions at interval 8) a replica holds
   only those still collecting votes. *)
let test_checkpoint_certificates_pruned () =
  let h = make_harness () in
  for i = 1 to 80 do
    submit_at h ~time_us:(i * 5_000) ~replica:0 (update ~client:4 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:10_000_000;
  check_all_executed_equally h ~expected_count:80;
  for r = 0 to 3 do
    let retained =
      Pbft.Replica.retained_checkpoints (Bft.Cluster.replica h.cluster r)
    in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d retains %d certificates" r retained)
      true (retained <= 2)
  done

let test_larger_cluster_f2 () =
  let quorum = Bft.Quorum.create ~n:7 ~f:2 ~k:0 in
  let h = make_harness ~n:7 ~quorum () in
  (* Two crashed replicas (= f), one of them a future leader. *)
  (Pbft.Replica.faults (Bft.Cluster.replica h.cluster 5)).Bft.Faults.crashed <-
    true;
  (Pbft.Replica.faults (Bft.Cluster.replica h.cluster 6)).Bft.Faults.crashed <-
    true;
  for i = 1 to 15 do
    submit_at h ~time_us:(i * 10_000) ~replica:0 (update ~client:5 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:10_000_000;
  let l0 = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster 0) in
  Alcotest.(check int) "executed with f crashed" 15 (Bft.Exec_log.length l0);
  for i = 1 to 4 do
    let li = Pbft.Replica.exec_log (Bft.Cluster.replica h.cluster i) in
    Alcotest.(check bool) "agreement" true (Bft.Exec_log.prefix_equal l0 li)
  done

let test_duplicate_submission_executes_once () =
  let h = make_harness () in
  let u = update ~client:11 ~seq:1 in
  (* Same update submitted at three replicas. *)
  submit_at h ~time_us:10_000 ~replica:0 u;
  submit_at h ~time_us:12_000 ~replica:1 u;
  submit_at h ~time_us:14_000 ~replica:2 u;
  Sim.Engine.run h.engine ~until_us:5_000_000;
  check_all_executed_equally h ~expected_count:1

(* The proposal digest before streaming, kept as the oracle. *)
let old_proposal_digest (p : Pbft.Msg.proposal) =
  match p.updates with
  | [] -> Cryptosim.Digest.of_string ("noop:" ^ string_of_int p.seq)
  | updates ->
    List.fold_left
      (fun acc u -> Cryptosim.Digest.combine acc (Bft.Update.digest u))
      (Cryptosim.Digest.of_string ("prop:" ^ string_of_int p.seq))
      updates

let prop_proposal_digest_matches_old =
  QCheck.Test.make ~count:500 ~name:"proposal digest = old formulation"
    QCheck.(pair int (small_list (pair small_nat string)))
    (fun (seq, ops) ->
      let updates =
        List.map
          (fun (s, operation) ->
            Bft.Update.create ~client:2 ~client_seq:s ~operation ~submitted_us:0)
          ops
      in
      let p = { Pbft.Msg.seq; updates } in
      Cryptosim.Digest.equal (Pbft.Msg.proposal_digest p) (old_proposal_digest p))

let () =
  Alcotest.run "pbft"
    [
      ( "replica",
        [
          Alcotest.test_case "fault-free ordering" `Quick test_fault_free;
          Alcotest.test_case "submit to backup" `Quick test_submit_to_backup;
          Alcotest.test_case "leader crash -> view change" `Quick
            test_leader_crash_triggers_view_change;
          Alcotest.test_case "slow leader keeps role (weakness)" `Quick
            test_slow_leader_is_not_replaced;
          Alcotest.test_case "equivocation: safety preserved" `Quick
            test_equivocating_leader_no_divergence;
          Alcotest.test_case "checkpoints + GC" `Quick
            test_checkpoint_garbage_collection;
          Alcotest.test_case "checkpoint certificates pruned" `Quick
            test_checkpoint_certificates_pruned;
          Alcotest.test_case "n=7 f=2 with crashes" `Quick
            test_larger_cluster_f2;
          Alcotest.test_case "duplicate submission executes once" `Quick
            test_duplicate_submission_executes_once;
          QCheck_alcotest.to_alcotest prop_proposal_digest_matches_old;
        ] );
    ]
