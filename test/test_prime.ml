(* Tests for the Prime protocol: summary matrices, fault-free ordering,
   the bounded-delay property under leader attack, reconciliation, and
   state transfer. *)

module M = Prime.Matrix

(* ------------------------------------------------------------------ *)
(* Matrix unit tests *)

let test_matrix_eligible_basic () =
  (* 4 replicas, threshold 3. Column 0: values 5,3,2,0 -> 3rd largest
     is 2. Column 1: 1,1,1,1 -> 1. *)
  let m =
    [|
      [| 5; 1; 0; 0 |]; [| 3; 1; 0; 0 |]; [| 2; 1; 0; 0 |]; [| 0; 1; 0; 0 |];
    |]
  in
  let e = M.eligible m ~threshold:3 in
  Alcotest.(check (array int)) "eligibility" [| 2; 1; 0; 0 |] e

let test_matrix_eligible_threshold_edge () =
  let m = [| [| 4 |] |] in
  Alcotest.(check (array int)) "threshold 1 takes max" [| 4 |]
    (M.eligible m ~threshold:1);
  Alcotest.check_raises "threshold too big"
    (Invalid_argument "Matrix.eligible: threshold out of range") (fun () ->
      ignore (M.eligible m ~threshold:2))

let test_matrix_merge () =
  let a = [| [| 1; 5 |]; [| 0; 0 |] |] and b = [| [| 3; 2 |]; [| 1; 0 |] |] in
  Alcotest.(check bool) "elementwise max" true
    (M.equal (M.merge a b) [| [| 3; 5 |]; [| 1; 0 |] |])

let test_matrix_digest_distinguishes () =
  let a = [| [| 1; 2 |]; [| 3; 4 |] |] and b = [| [| 1; 2 |]; [| 3; 5 |] |] in
  Alcotest.(check bool) "digests differ" false
    (Cryptosim.Digest.equal (M.digest a) (M.digest b));
  Alcotest.(check bool) "digest stable" true
    (Cryptosim.Digest.equal (M.digest a) (M.digest (M.copy a)))

let prop_eligible_monotone_in_matrix =
  QCheck.Test.make ~name:"merging can only raise eligibility"
    QCheck.(
      pair
        (array_of_size (QCheck.Gen.return 4) (array_of_size (QCheck.Gen.return 4) (int_bound 10)))
        (array_of_size (QCheck.Gen.return 4) (array_of_size (QCheck.Gen.return 4) (int_bound 10))))
    (fun (a, b) ->
      let ea = M.eligible a ~threshold:3 in
      let eab = M.eligible (M.merge a b) ~threshold:3 in
      M.vector_dominates eab ea)

let prop_eligible_bounded_by_max =
  QCheck.Test.make ~name:"eligibility never exceeds any column max"
    QCheck.(array_of_size (QCheck.Gen.return 4) (array_of_size (QCheck.Gen.return 4) (int_bound 10)))
    (fun m ->
      let e = M.eligible m ~threshold:3 in
      let ok = ref true in
      for j = 0 to 3 do
        let col_max = ref 0 in
        for i = 0 to 3 do
          col_max := max !col_max m.(i).(j)
        done;
        if e.(j) > !col_max then ok := false
      done;
      !ok)

let prop_threshold_n_is_column_min =
  QCheck.Test.make ~name:"threshold=n eligibility is the column minimum"
    QCheck.(array_of_size (QCheck.Gen.return 3) (array_of_size (QCheck.Gen.return 3) (int_bound 10)))
    (fun m ->
      let e = M.eligible m ~threshold:3 in
      let ok = ref true in
      for j = 0 to 2 do
        let col_min = ref max_int in
        for i = 0 to 2 do
          col_min := min !col_min m.(i).(j)
        done;
        if e.(j) <> !col_min then ok := false
      done;
      !ok)

(* The matrix kernels before the loop rewrite, kept as oracles. *)
module Old = struct
  let merge_vector a b = Array.init (Array.length a) (fun i -> max a.(i) b.(i))
  let merge a b = Array.init (Array.length a) (fun i -> merge_vector a.(i) b.(i))

  let eligible m ~threshold =
    let n = Array.length m in
    Array.init n (fun j ->
        let column = Array.init n (fun i -> m.(i).(j)) in
        Array.sort (fun a b -> compare b a) column;
        column.(threshold - 1))

  let digest m =
    let buf = Buffer.create 256 in
    Array.iter
      (fun row ->
        Array.iter
          (fun v ->
            Buffer.add_string buf (string_of_int v);
            Buffer.add_char buf ',')
          row;
        Buffer.add_char buf ';')
      m;
    Cryptosim.Digest.of_string (Buffer.contents buf)
end

let gen_entry =
  QCheck.Gen.(
    frequency
      [
        (4, int_range (-5) 20);
        (2, int);
        (1, oneofl [ min_int; max_int; 0; -1; 1_000_000_007 ]);
      ])

let gen_square n = QCheck.Gen.(array_repeat n (array_repeat n gen_entry))

let prop_kernels_match_old =
  QCheck.Test.make ~count:1_000 ~name:"merge/eligible/digest = old kernels"
    QCheck.(
      make
        ~print:(fun (a, b, t) ->
          Format.asprintf "%a| %a| threshold %d" M.pp a M.pp b t)
        Gen.(
          int_range 1 8 >>= fun n ->
          map3 (fun a b t -> (a, b, t)) (gen_square n) (gen_square n) (int_range 1 n)))
    (fun (a, b, threshold) ->
      M.equal (M.merge a b) (Old.merge a b)
      && M.eligible a ~threshold = Old.eligible a ~threshold
      && M.eligible (M.merge a b) ~threshold = Old.eligible (Old.merge a b) ~threshold
      && Cryptosim.Digest.equal (M.digest a) (Old.digest a)
      && M.merge_vector a.(0) b.(0) = Old.merge_vector a.(0) b.(0))

let test_matrix_well_formed () =
  Alcotest.(check bool) "square" true (M.well_formed ~n:3 (M.empty ~n:3));
  Alcotest.(check bool) "wrong size" false (M.well_formed ~n:4 (M.empty ~n:3));
  Alcotest.(check bool) "ragged" false
    (M.well_formed ~n:3 [| [| 1; 2; 3 |]; [| 1; 2 |]; [| 1; 2; 3 |] |]);
  Alcotest.(check bool) "too many rows" false
    (M.well_formed ~n:2 [| [| 1; 2 |]; [| 1; 2 |]; [| 1; 2 |] |])

let test_eligible_allocation () =
  let m = Array.init 6 (fun i -> Array.init 6 (fun j -> (7 * i) + (3 * j))) in
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (M.eligible m ~threshold:4))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  (* The result (7 words) and one scratch column of [threshold] (5). *)
  if words > 14. then Alcotest.failf "eligible 6x6 allocates %.1f words" words

(* ------------------------------------------------------------------ *)
(* Replica integration harness *)

let quorum_6 = Bft.Quorum.create ~n:6 ~f:1 ~k:1

let fast_config quorum =
  {
    (Prime.Replica.default_config quorum) with
    Prime.Replica.aru_interval_us = 2_000;
    proposal_interval_us = 5_000;
    tat_threshold_us = 100_000;
    tat_violations_to_suspect = 3;
    viewchange_timeout_us = 500_000;
    watchdog_interval_us = 10_000;
    checkpoint_interval = 16;
  }

type harness = {
  engine : Sim.Engine.t;
  cluster : (Prime.Replica.t, Prime.Msg.t) Bft.Cluster.t;
  exec_times : (int, (int * Bft.Update.t) list ref) Hashtbl.t;
}

let make_harness ?(n = 6) ?(quorum = quorum_6) ?(latency_us = 1_000) () =
  let engine = Sim.Engine.create ~seed:11L () in
  let exec_times = Hashtbl.create 7 in
  let cluster =
    Bft.Cluster.create ~engine ~n
      ~latency_us:(fun _ _ -> latency_us)
      ~make:(fun i env ->
        let log = ref [] in
        Hashtbl.replace exec_times i log;
        let r =
          Prime.Replica.create (fast_config quorum) env
            ~execute:(fun _idx u -> log := (Sim.Engine.now engine, u) :: !log)
        in
        Prime.Replica.start r;
        r)
      ~deliver:(fun r ~from msg -> Prime.Replica.handle r ~from msg)
  in
  { engine; cluster; exec_times }

let update ~client ~seq =
  Bft.Update.create ~client ~client_seq:seq
    ~operation:(Printf.sprintf "op-%d-%d" client seq)
    ~submitted_us:0

let submit_at h ~time_us ~origin u =
  ignore
    (Sim.Engine.schedule_at h.engine ~time_us (fun () ->
         Prime.Replica.submit (Bft.Cluster.replica h.cluster origin) u)
      : Sim.Engine.timer)

let check_agreement h =
  let n = Bft.Cluster.size h.cluster in
  let l0 = Prime.Replica.exec_log (Bft.Cluster.replica h.cluster 0) in
  for i = 1 to n - 1 do
    let li = Prime.Replica.exec_log (Bft.Cluster.replica h.cluster i) in
    Alcotest.(check bool)
      (Printf.sprintf "prefix-equal 0 vs %d" i)
      true
      (Bft.Exec_log.prefix_equal l0 li)
  done

let correct_execution_counts h ~skip =
  let n = Bft.Cluster.size h.cluster in
  List.filter_map
    (fun i ->
      if List.mem i skip then None
      else
        Some
          (Bft.Exec_log.length
             (Prime.Replica.exec_log (Bft.Cluster.replica h.cluster i))))
    (List.init n Fun.id)

let test_fault_free_ordering () =
  let h = make_harness () in
  for i = 1 to 30 do
    submit_at h ~time_us:(i * 5_000) ~origin:(i mod 6) (update ~client:3 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:3_000_000;
  check_agreement h;
  List.iter
    (fun c -> Alcotest.(check int) "all executed" 30 c)
    (correct_execution_counts h ~skip:[]);
  Alcotest.(check int) "no view change" 0
    (Prime.Replica.view (Bft.Cluster.replica h.cluster 2))

(* Before the leader's first proposal, replica 0 (the view-0 leader)
   hands every backup pre-prepares for slots 1 and 2 carrying [bad], a
   matrix that is not 6 x 6. Backups must drop them: ordering then
   proceeds as if they were never sent. *)
let test_malformed_preprepare_ignored () =
  let run bad =
    let h = make_harness () in
    ignore
      (Sim.Engine.schedule_at h.engine ~time_us:500 (fun () ->
           for i = 1 to 5 do
             List.iter
               (fun seq ->
                 Prime.Replica.handle
                   (Bft.Cluster.replica h.cluster i)
                   ~from:0
                   (Prime.Msg.Preprepare { view = 0; seq; matrix = bad }))
               [ 1; 2 ]
           done)
        : Sim.Engine.timer);
    for i = 1 to 20 do
      submit_at h ~time_us:(i * 5_000) ~origin:(i mod 6) (update ~client:3 ~seq:i)
    done;
    Sim.Engine.run h.engine ~until_us:3_000_000;
    check_agreement h;
    List.iter
      (fun c -> Alcotest.(check int) "all executed" 20 c)
      (correct_execution_counts h ~skip:[])
  in
  run (Array.init 5 (fun _ -> Array.make 6 1));
  run (Array.init 6 (fun i -> Array.make (if i = 3 then 4 else 6) 1))

let test_fault_free_latency_bounded () =
  let h = make_harness () in
  let submit_time = 100_000 in
  submit_at h ~time_us:submit_time ~origin:2 (update ~client:1 ~seq:1);
  Sim.Engine.run h.engine ~until_us:2_000_000;
  (* Latency from submission to execution at replica 0: pre-order
     dissemination + ARU tick + proposal tick + 2 ordering rounds.
     With 1ms links and 2/5ms cadences this is well under 50 ms. *)
  (match List.rev !(Hashtbl.find h.exec_times 0) with
  | [ (exec_time, _) ] ->
    Alcotest.(check bool) "latency under 50ms" true
      (exec_time - submit_time < 50_000)
  | l -> Alcotest.failf "expected 1 execution, got %d" (List.length l));
  check_agreement h

let test_duplicate_origins_execute_once () =
  let h = make_harness () in
  let u = update ~client:5 ~seq:1 in
  submit_at h ~time_us:10_000 ~origin:0 u;
  submit_at h ~time_us:11_000 ~origin:3 u;
  Sim.Engine.run h.engine ~until_us:2_000_000;
  check_agreement h;
  List.iter
    (fun c -> Alcotest.(check int) "exactly once" 1 c)
    (correct_execution_counts h ~skip:[])

let test_slow_leader_rotated_and_bounded () =
  let h = make_harness () in
  let r0 = Bft.Cluster.replica h.cluster 0 in
  (* Leader delays every proposal by 400ms >> 100ms TAT bound. *)
  (Prime.Replica.faults r0).Bft.Faults.proposal_delay_us <- 400_000;
  for i = 1 to 20 do
    submit_at h ~time_us:(100_000 + (i * 10_000)) ~origin:(1 + (i mod 5))
      (update ~client:2 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:10_000_000;
  check_agreement h;
  (* The slow leader was detected and replaced... *)
  Alcotest.(check bool) "view advanced" true
    (Prime.Replica.view (Bft.Cluster.replica h.cluster 1) >= 1);
  (* ...and every update executed. *)
  List.iter
    (fun c -> Alcotest.(check int) "all executed" 20 c)
    (correct_execution_counts h ~skip:[ 0 ]);
  (* Bounded delay: every update executed within ~TAT bound + view
     change, far less than the 400ms the leader wanted to impose per
     update. *)
  let times = List.rev !(Hashtbl.find h.exec_times 1) in
  let last_exec, _ = List.nth times (List.length times - 1) in
  Alcotest.(check bool) "all done shortly after last submit" true
    (last_exec < 1_500_000)

let test_crashed_leader_rotated () =
  let h = make_harness () in
  let r0 = Bft.Cluster.replica h.cluster 0 in
  (Prime.Replica.faults r0).Bft.Faults.crashed <- true;
  for i = 1 to 5 do
    submit_at h ~time_us:(50_000 + (i * 10_000)) ~origin:1
      (update ~client:8 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:10_000_000;
  Alcotest.(check bool) "view advanced" true
    (Prime.Replica.view (Bft.Cluster.replica h.cluster 1) >= 1);
  List.iter
    (fun c -> Alcotest.(check int) "all executed" 5 c)
    (correct_execution_counts h ~skip:[ 0 ]);
  check_agreement h

let test_crashed_backup_tolerated () =
  let h = make_harness () in
  let r5 = Bft.Cluster.replica h.cluster 5 in
  (Prime.Replica.faults r5).Bft.Faults.crashed <- true;
  for i = 1 to 10 do
    submit_at h ~time_us:(i * 10_000) ~origin:(i mod 5) (update ~client:4 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:3_000_000;
  check_agreement h;
  List.iter
    (fun c -> Alcotest.(check int) "executed with crashed backup" 10 c)
    (correct_execution_counts h ~skip:[ 5 ]);
  Alcotest.(check int) "no view change needed" 0
    (Prime.Replica.view (Bft.Cluster.replica h.cluster 1))

let test_reconciliation_fills_missed_body () =
  let h = make_harness () in
  let r1 = Bft.Cluster.replica h.cluster 1 in
  (* Origin 1 suppresses its PO-Request to replica 4 only: 4 will see
     the update become eligible and must reconcile the body. *)
  (Prime.Replica.faults r1).Bft.Faults.drop_to <- (fun r -> r = 4);
  submit_at h ~time_us:10_000 ~origin:1 (update ~client:6 ~seq:1);
  (* Restore honest behaviour for subsequent updates. *)
  ignore
    (Sim.Engine.schedule_at h.engine ~time_us:20_000 (fun () ->
         (Prime.Replica.faults r1).Bft.Faults.drop_to <- (fun _ -> false)));
  submit_at h ~time_us:30_000 ~origin:2 (update ~client:6 ~seq:2);
  Sim.Engine.run h.engine ~until_us:3_000_000;
  check_agreement h;
  List.iter
    (fun c -> Alcotest.(check int) "everyone executed both" 2 c)
    (correct_execution_counts h ~skip:[]);
  (* Replica 4 executed the update it never directly received. *)
  Alcotest.(check bool) "replica 4 caught up via reconciliation" true
    (List.exists
       (fun (_, u) -> Bft.Update.key u = (6, 1))
       !(Hashtbl.find h.exec_times 4))

(* The snapshot digest before streaming, over the old matrix digest, kept
   as the oracle (the delivery-state digest has its own oracle in
   test_delivery). *)
let old_snapshot_digest (s : Prime.Replica.snapshot) =
  let cursor_str =
    String.concat "," (Array.to_list (Array.map string_of_int s.snap_cursor))
  in
  Cryptosim.Digest.combine
    (Cryptosim.Digest.of_string
       (Printf.sprintf "snap:%d:%d:%d:%s" s.snap_exec_count s.snap_last_applied
          s.snap_view cursor_str))
    (Cryptosim.Digest.combine
       (Cryptosim.Digest.combine s.snap_chain (Old.digest s.snap_cum_matrix))
       (Bft.Delivery.digest_of_state s.snap_delivery))

let prop_snapshot_digest_matches_old =
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun n ->
      let updates =
        list_size (int_bound 3)
          (map2
             (fun seq op ->
               Bft.Update.create ~client:1 ~client_seq:seq ~operation:op
                 ~submitted_us:0)
             (int_bound 1_000) string_printable)
      in
      map3
        (fun (count, applied, view) (cursor, matrix) (chain, delivery) ->
          {
            Prime.Replica.snap_exec_count = count;
            snap_chain = Cryptosim.Digest.of_string chain;
            snap_cursor = cursor;
            snap_last_applied = applied;
            snap_cum_matrix = matrix;
            snap_view = view;
            snap_delivery = delivery;
          })
        (triple gen_entry gen_entry gen_entry)
        (pair (array_repeat n gen_entry) (gen_square n))
        (pair string_printable
           (list_size (int_bound 3) (triple gen_entry gen_entry updates))))
  in
  QCheck.Test.make ~count:500 ~name:"snapshot digest = old formulation"
    (QCheck.make gen) (fun s ->
      Cryptosim.Digest.equal (Prime.Replica.snapshot_digest s) (old_snapshot_digest s))

let test_snapshot_roundtrip () =
  let h = make_harness () in
  for i = 1 to 10 do
    submit_at h ~time_us:(i * 10_000) ~origin:(i mod 6) (update ~client:7 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:2_000_000;
  let r0 = Bft.Cluster.replica h.cluster 0 in
  let r1 = Bft.Cluster.replica h.cluster 1 in
  let snap = Prime.Replica.snapshot r0 in
  let snap1 = Prime.Replica.snapshot r1 in
  (* Snapshots of replicas at identical state have identical digests. *)
  Alcotest.(check bool) "snapshot digests agree" true
    (Cryptosim.Digest.equal
       (Prime.Replica.snapshot_digest snap)
       (Prime.Replica.snapshot_digest snap1));
  Alcotest.(check int) "snapshot carries executions" 10
    snap.Prime.Replica.snap_exec_count

let test_recovered_replica_rejoins () =
  let h = make_harness () in
  for i = 1 to 10 do
    submit_at h ~time_us:(i * 10_000) ~origin:(i mod 4) (update ~client:9 ~seq:i)
  done;
  (* Crash replica 5 mid-stream, then "recover" it: reset faults,
     install a snapshot from replica 0, and let it rejoin. *)
  ignore
    (Sim.Engine.schedule_at h.engine ~time_us:30_000 (fun () ->
         (Prime.Replica.faults (Bft.Cluster.replica h.cluster 5))
           .Bft.Faults.crashed <- true));
  ignore
    (Sim.Engine.schedule_at h.engine ~time_us:500_000 (fun () ->
         let r5 = Bft.Cluster.replica h.cluster 5 in
         Bft.Faults.reset (Prime.Replica.faults r5);
         let snap = Prime.Replica.snapshot (Bft.Cluster.replica h.cluster 0) in
         Prime.Replica.install_snapshot r5 snap));
  (* More updates after recovery. *)
  for i = 11 to 20 do
    submit_at h ~time_us:(600_000 + (i * 10_000)) ~origin:(i mod 4)
      (update ~client:9 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:5_000_000;
  check_agreement h;
  let l5 = Prime.Replica.exec_log (Bft.Cluster.replica h.cluster 5) in
  Alcotest.(check int) "recovered replica has full history" 20
    (Bft.Exec_log.length l5)

let test_max_tat_reflects_leader_delay () =
  let h = make_harness () in
  let r0 = Bft.Cluster.replica h.cluster 0 in
  (Prime.Replica.faults r0).Bft.Faults.proposal_delay_us <- 60_000;
  (* Below the 100ms suspicion bound: leader keeps role, but observed
     TAT grows to ~the injected delay. *)
  for i = 1 to 10 do
    submit_at h ~time_us:(i * 50_000) ~origin:1 (update ~client:1 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:3_000_000;
  let tat = Prime.Replica.max_tat_us (Bft.Cluster.replica h.cluster 1) in
  Alcotest.(check bool) "TAT reflects delay" true (tat >= 55_000);
  Alcotest.(check int) "leader kept role (below bound)" 0
    (Prime.Replica.view (Bft.Cluster.replica h.cluster 1));
  check_agreement h

let test_stale_suspect_views_pruned () =
  (* Regression for the per-view table leak: suspicions, view-change
     votes and new-view evidence are keyed by view; entries below the
     current view can never be read again and must be dropped when the
     view advances. Chaos run: slow down whichever replica currently
     leads, three times in a row, so the cluster rotates through
     several views while updates keep flowing. *)
  let h = make_harness () in
  let faulted = ref None in
  let slow_current_leader () =
    (match !faulted with
    | Some r ->
        Bft.Faults.reset (Prime.Replica.faults (Bft.Cluster.replica h.cluster r))
    | None -> ());
    let view = Prime.Replica.view (Bft.Cluster.replica h.cluster 5) in
    let leader = view mod 6 in
    faulted := Some leader;
    (Prime.Replica.faults (Bft.Cluster.replica h.cluster leader))
      .Bft.Faults.proposal_delay_us <- 400_000
  in
  List.iter
    (fun time_us ->
      ignore
        (Sim.Engine.schedule_at h.engine ~time_us (fun () ->
             slow_current_leader ())))
    [ 100_000; 3_100_000; 6_100_000 ];
  for i = 1 to 80 do
    submit_at h ~time_us:(i * 100_000) ~origin:(i mod 6) (update ~client:6 ~seq:i)
  done;
  Sim.Engine.run h.engine ~until_us:12_000_000;
  check_agreement h;
  Alcotest.(check bool) "several view changes happened" true
    (Prime.Replica.view (Bft.Cluster.replica h.cluster 5) >= 3);
  (* With pruning, each replica retains rows only for its current (and
     possibly next pending) view — a handful, independent of how many
     views the run burned through. Without pruning this climbs with
     every rotation (one suspects row + one vote row + one evidence row
     per historical view). *)
  for r = 0 to 5 do
    let retained =
      Prime.Replica.retained_suspect_views (Bft.Cluster.replica h.cluster r)
    in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d retains only live view rows (got %d)" r
         retained)
      true (retained <= 4)
  done

(* A committed slot is final. Replica 5 adopts slot 2 from two
   matching catch-up replies (f + 1 = 2 appliers), so it holds the slot
   committed but unapplied: slot 1 is still open. The view-0 leader,
   stale, then pre-prepares slot 2 with another matrix. Once slot 1
   arrives, replica 5 must apply slot 2 with the matrix it committed.
   The other replicas are crashed, so only these frames reach it. *)
let test_stale_leader_cannot_replace_committed_slot () =
  let h = make_harness () in
  for i = 0 to 4 do
    (Prime.Replica.faults (Bft.Cluster.replica h.cluster i)).Bft.Faults.crashed
    <- true
  done;
  let r5 = Bft.Cluster.replica h.cluster 5 in
  let applied = ref [] in
  Prime.Replica.set_on_apply r5 (fun seq digest ->
      applied := (seq, digest) :: !applied);
  let committed = M.empty ~n:6 in
  let stale = M.empty ~n:6 in
  stale.(0).(0) <- 1;
  let reply ~seq ~matrix from =
    Prime.Replica.handle r5 ~from (Prime.Msg.Slot_reply { seq; matrix })
  in
  List.iter (reply ~seq:2 ~matrix:committed) [ 1; 2 ];
  Prime.Replica.handle r5 ~from:0
    (Prime.Msg.Preprepare { view = 0; seq = 2; matrix = stale });
  List.iter (reply ~seq:1 ~matrix:(M.empty ~n:6)) [ 1; 2 ];
  match List.assoc_opt 2 !applied with
  | Some digest ->
    Alcotest.(check bool)
      "slot 2 applied with the committed matrix" true
      (Cryptosim.Digest.equal digest (M.digest committed))
  | None -> Alcotest.fail "slot 2 was never applied"

let () =
  Alcotest.run "prime"
    [
      ( "matrix",
        [
          Alcotest.test_case "eligible basic" `Quick test_matrix_eligible_basic;
          Alcotest.test_case "eligible threshold edge" `Quick
            test_matrix_eligible_threshold_edge;
          Alcotest.test_case "merge" `Quick test_matrix_merge;
          Alcotest.test_case "digest" `Quick test_matrix_digest_distinguishes;
          QCheck_alcotest.to_alcotest prop_eligible_monotone_in_matrix;
          QCheck_alcotest.to_alcotest prop_eligible_bounded_by_max;
          QCheck_alcotest.to_alcotest prop_threshold_n_is_column_min;
          QCheck_alcotest.to_alcotest prop_kernels_match_old;
          Alcotest.test_case "well formed" `Quick test_matrix_well_formed;
          Alcotest.test_case "eligible allocation" `Quick test_eligible_allocation;
        ] );
      ( "replica",
        [
          Alcotest.test_case "fault-free ordering" `Quick test_fault_free_ordering;
          Alcotest.test_case "fault-free latency" `Quick
            test_fault_free_latency_bounded;
          Alcotest.test_case "duplicate origins once" `Quick
            test_duplicate_origins_execute_once;
          Alcotest.test_case "slow leader rotated (bounded delay)" `Quick
            test_slow_leader_rotated_and_bounded;
          Alcotest.test_case "crashed leader rotated" `Quick
            test_crashed_leader_rotated;
          Alcotest.test_case "crashed backup tolerated" `Quick
            test_crashed_backup_tolerated;
          Alcotest.test_case "reconciliation" `Quick
            test_reconciliation_fills_missed_body;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "recovered replica rejoins" `Quick
            test_recovered_replica_rejoins;
          Alcotest.test_case "TAT reflects delay" `Quick
            test_max_tat_reflects_leader_delay;
          Alcotest.test_case "stale suspect views pruned" `Quick
            test_stale_suspect_views_pruned;
          Alcotest.test_case "malformed pre-prepare ignored" `Quick
            test_malformed_preprepare_ignored;
          Alcotest.test_case "stale leader cannot replace a committed slot"
            `Quick test_stale_leader_cannot_replace_committed_slot;
          QCheck_alcotest.to_alcotest prop_snapshot_digest_matches_old;
        ] );
    ]
