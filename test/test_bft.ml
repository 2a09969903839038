(* Tests for the shared BFT substrate: quorum arithmetic, updates,
   execution logs, and the in-memory cluster harness. *)

module Q = Bft.Quorum
module U = Bft.Update
module L = Bft.Exec_log

let test_quorum_minimal () =
  let q = Q.minimal ~f:1 ~k:1 in
  Alcotest.(check int) "n = 3f+2k+1" 6 q.Q.n;
  Alcotest.(check int) "quorum = 2f+k+1" 4 (Q.quorum_size q);
  Alcotest.(check int) "exec threshold" 3 (Q.execution_threshold q);
  Alcotest.(check int) "reply threshold" 2 (Q.reply_threshold q)

let test_quorum_rejects_undersized () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Quorum.create: n < 3f + 2k + 1") (fun () ->
      ignore (Q.create ~n:5 ~f:1 ~k:1))

let test_quorum_classic_pbft () =
  (* k = 0 degenerates to the classic 3f+1 bound. *)
  let q = Q.minimal ~f:1 ~k:0 in
  Alcotest.(check int) "n" 4 q.Q.n;
  Alcotest.(check int) "quorum" 3 (Q.quorum_size q)

let test_quorum_tolerates () =
  let q = Q.minimal ~f:1 ~k:1 in
  Alcotest.(check bool) "f=1,k=1 ok" true
    (Q.tolerates_simultaneously q ~compromised:1 ~recovering:1);
  Alcotest.(check bool) "f=2 too many" false
    (Q.tolerates_simultaneously q ~compromised:2 ~recovering:0)

let prop_quorum_intersection_contains_correct =
  QCheck.Test.make
    ~name:"two quorums intersect in >= f+1 replicas (so >= 1 correct)"
    QCheck.(pair (int_bound 3) (int_bound 3))
    (fun (f, k) ->
      let q = Q.minimal ~f ~k in
      Q.two_quorum_intersection q >= f + 1)

let prop_quorum_always_available =
  QCheck.Test.make
    ~name:"a quorum of correct, non-recovering replicas always exists"
    QCheck.(pair (int_bound 3) (int_bound 3))
    (fun (f, k) ->
      let q = Q.minimal ~f ~k in
      q.Q.n - f - k >= Q.quorum_size q)

let test_leader_rotation () =
  Alcotest.(check int) "v0" 0 (Bft.Types.leader_of ~n:4 0);
  Alcotest.(check int) "v5" 1 (Bft.Types.leader_of ~n:4 5)

(* ------------------------------------------------------------------ *)
(* Update *)

let test_update_digest_ignores_submission_time () =
  let a = U.create ~client:1 ~client_seq:2 ~operation:"op" ~submitted_us:0 in
  let b = U.create ~client:1 ~client_seq:2 ~operation:"op" ~submitted_us:999 in
  Alcotest.(check bool) "same digest" true
    (Cryptosim.Digest.equal (U.digest a) (U.digest b));
  Alcotest.(check bool) "equal" true (U.equal a b)

let test_update_digest_distinguishes_content () =
  let a = U.create ~client:1 ~client_seq:2 ~operation:"op1" ~submitted_us:0 in
  let b = U.create ~client:1 ~client_seq:2 ~operation:"op2" ~submitted_us:0 in
  Alcotest.(check bool) "different digest" false
    (Cryptosim.Digest.equal (U.digest a) (U.digest b))

(* ------------------------------------------------------------------ *)
(* Exec log *)

let upd i =
  U.create ~client:0 ~client_seq:i ~operation:(string_of_int i) ~submitted_us:0

let test_exec_log_append_and_chain () =
  let l = L.create () in
  Alcotest.(check int) "pos 1" 1 (L.append l (upd 1));
  Alcotest.(check int) "pos 2" 2 (L.append l (upd 2));
  Alcotest.(check int) "length" 2 (L.length l);
  Alcotest.(check bool) "contains key" true (L.contains_key l (0, 1));
  Alcotest.(check bool) "not contains" false (L.contains_key l (0, 3))

let test_exec_log_prefix_equal () =
  let a = L.create () and b = L.create () in
  ignore (L.append a (upd 1));
  ignore (L.append a (upd 2));
  ignore (L.append b (upd 1));
  Alcotest.(check bool) "prefix" true (L.prefix_equal a b);
  ignore (L.append b (upd 3));
  Alcotest.(check bool) "diverged" false (L.prefix_equal a b)

let test_exec_log_snapshot () =
  let a = L.create () in
  ignore (L.append a (upd 1));
  ignore (L.append a (upd 2));
  let chain = L.chain_digest a in
  let b = L.create () in
  L.install_snapshot b ~updates:2 ~chain;
  Alcotest.(check int) "length adopted" 2 (L.length b);
  Alcotest.(check bool) "chains equal" true
    (Cryptosim.Digest.equal (L.chain_digest a) (L.chain_digest b));
  (* Continue identically on both: chains stay equal. *)
  ignore (L.append a (upd 3));
  ignore (L.append b (upd 3));
  Alcotest.(check bool) "still equal" true
    (Cryptosim.Digest.equal (L.chain_digest a) (L.chain_digest b));
  Alcotest.(check bool) "prefix equal across snapshot" true (L.prefix_equal a b)

let prop_exec_log_chain_detects_divergence =
  QCheck.Test.make ~name:"chain digest differs iff sequences differ"
    QCheck.(pair (list (int_bound 20)) (list (int_bound 20)))
    (fun (xs, ys) ->
      let build ops =
        let l = L.create () in
        List.iteri
          (fun i op ->
            ignore
              (L.append l
                 (U.create ~client:0 ~client_seq:i
                    ~operation:(string_of_int op) ~submitted_us:0)))
          ops;
        l
      in
      let a = build xs and b = build ys in
      let same_len = List.length xs = List.length ys in
      if same_len && xs = ys then
        Cryptosim.Digest.equal (L.chain_digest a) (L.chain_digest b)
      else if same_len then
        not (Cryptosim.Digest.equal (L.chain_digest a) (L.chain_digest b))
      else true)

let test_exec_log_nth () =
  let l = L.create () in
  ignore (L.append l (upd 5));
  ignore (L.append l (upd 6));
  Alcotest.(check int) "nth 2" 6 (L.nth l 2).U.client_seq;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Exec_log.nth: position out of range") (fun () ->
      ignore (L.nth l 3))

(* ------------------------------------------------------------------ *)
(* Cluster harness *)

type echo_msg = Echo of int

type echo_node = {
  env : echo_msg Bft.Env.t;
  mutable received : (int * int) list; (* (from, value) *)
}

let test_cluster_delivery_and_partition () =
  let engine = Sim.Engine.create () in
  let cluster =
    Bft.Cluster.create ~engine ~n:3
      ~latency_us:(fun _ _ -> 100)
      ~make:(fun _ env -> { env; received = [] })
      ~deliver:(fun node ~from (Echo v) ->
        node.received <- (from, v) :: node.received)
  in
  let n0 = Bft.Cluster.replica cluster 0 in
  Bft.Env.broadcast n0.env (Echo 42);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check (list (pair int int))) "node 1 got it" [ (0, 42) ]
    (Bft.Cluster.replica cluster 1).received;
  Alcotest.(check (list (pair int int))) "node 0 did not (broadcast excludes self)"
    [] n0.received;
  (* Partition node 2 away. *)
  Bft.Cluster.partition cluster ~island:[ 2 ];
  Bft.Env.broadcast n0.env (Echo 43);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "node 2 isolated" true
    (not (List.mem (0, 43) (Bft.Cluster.replica cluster 2).received));
  Alcotest.(check bool) "node 1 still reachable" true
    (List.mem (0, 43) (Bft.Cluster.replica cluster 1).received);
  Bft.Cluster.heal cluster;
  Bft.Env.broadcast n0.env (Echo 44);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "node 2 back" true
    (List.mem (0, 44) (Bft.Cluster.replica cluster 2).received)

let test_cluster_latency_override () =
  let engine = Sim.Engine.create () in
  let arrival = ref 0 in
  let cluster =
    Bft.Cluster.create ~engine ~n:2
      ~latency_us:(fun _ _ -> 100)
      ~make:(fun _ env -> env)
      ~deliver:(fun _env ~from:_ (Echo _) -> arrival := Sim.Engine.now engine)
  in
  Bft.Cluster.set_link_delay cluster ~src:0 ~dst:1 5_000;
  let env0 = Bft.Cluster.replica cluster 0 in
  env0.Bft.Env.send 1 (Echo 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "overridden delay" 5_000 !arrival

(* ------------------------------------------------------------------ *)
(* Batch accumulator: it alone decides when a generation flushes. *)

module B = Bft.Batch

let show_action = function
  | B.Solo -> "solo"
  | B.Flush xs -> "flush [" ^ String.concat ";" (List.map string_of_int xs) ^ "]"
  | B.Arm d -> "arm " ^ string_of_int d
  | B.Wait -> "wait"

let check_add msg expected a ~now x =
  Alcotest.(check string) msg expected (show_action (B.add a ~now x))

let test_batch_size_flush () =
  let a = B.acc (B.create ~max_delay_us:100 ~max_batch:3 ()) in
  check_add "first arms" "arm 100" a ~now:0 1;
  check_add "second waits" "wait" a ~now:10 2;
  check_add "third fills" "flush [1;2;3]" a ~now:20 3;
  Alcotest.(check (list int)) "nothing left" [] (B.due a ~now:1_000)

let test_batch_one_arm_per_generation () =
  let a = B.acc (B.create ~max_delay_us:50 ~max_batch:4 ()) in
  let arms = ref 0 in
  for i = 1 to 12 do
    match B.add a ~now:i i with
    | B.Arm _ -> incr arms
    | B.Solo | B.Flush _ | B.Wait -> ()
  done;
  Alcotest.(check int) "three generations, three arms" 3 !arms

let test_batch_due_deadline () =
  let a = B.acc (B.create ~max_delay_us:100 ~max_batch:8 ()) in
  check_add "opens a generation" "arm 100" a ~now:0 1;
  check_add "joins it" "wait" a ~now:50 2;
  Alcotest.(check (list int)) "before the deadline" [] (B.due a ~now:99);
  Alcotest.(check (list int)) "at the deadline" [ 1; 2 ] (B.due a ~now:100);
  Alcotest.(check (list int)) "drained once" [] (B.due a ~now:100);
  (* The first generation's timer firing late finds the next one young. *)
  check_add "next generation" "arm 100" a ~now:150 3;
  Alcotest.(check (list int)) "stale timer ships nothing" [] (B.due a ~now:200);
  Alcotest.(check (list int)) "its own deadline" [ 3 ] (B.due a ~now:250)

let test_batch_shrink_makes_due () =
  let a = B.acc (B.create ~max_delay_us:1_000 ~max_batch:8 ()) in
  List.iter (fun x -> ignore (B.add a ~now:0 x : int B.action)) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "not yet due" [] (B.due a ~now:1);
  B.set_policy a (B.create ~max_delay_us:1_000 ~max_batch:2 ());
  Alcotest.(check (list int)) "full under the smaller max" [ 1; 2; 3 ]
    (B.due a ~now:1);
  check_add "new generation" "arm 1000" a ~now:10 4;
  B.set_policy a (B.create ~max_delay_us:5 ~max_batch:8 ());
  Alcotest.(check (list int)) "shorter deadline passed" [ 4 ] (B.due a ~now:20);
  Alcotest.check_raises "invalid policy" (Invalid_argument
    "Bft.Batch.validate: max_batch must be >= 1") (fun () ->
      B.set_policy a { B.max_batch = 0; max_delay_us = 0 })

let test_batch_singleton_never_arms () =
  let a = B.acc { B.singleton with B.max_delay_us = 77_777 } in
  for i = 1 to 100 do
    check_add "flushes alone" "solo" a ~now:(i * 1_000) i;
    Alcotest.(check (list int)) "nothing buffered" [] (B.due a ~now:max_int)
  done;
  (* A swap down to one drains what the bigger policy had buffered. *)
  let b = B.acc (B.create ~max_batch:4 ()) in
  check_add "buffered" "arm 10000" b ~now:0 1;
  B.set_policy b B.singleton;
  Alcotest.(check (list int)) "drained by the swap" [ 1 ] (B.due b ~now:0);
  check_add "then alone" "solo" b ~now:1 2

(* A live swap that lengthens the delay must not strand the buffered
   generation: its timer was armed for the old delay, so the old
   deadline still holds for it. *)
let test_batch_lengthened_delay_keeps_deadline () =
  let a = B.acc (B.create ~max_delay_us:1_000 ~max_batch:8 ()) in
  check_add "opens a generation" "arm 1000" a ~now:0 1;
  B.set_policy a (B.create ~max_delay_us:5_000 ~max_batch:8 ());
  Alcotest.(check (list int)) "the armed timer ships it" [ 1 ]
    (B.due a ~now:1_000);
  check_add "next generation arms the new delay" "arm 5000" a ~now:1_500 2;
  Alcotest.(check (list int)) "not due at the old delay" [] (B.due a ~now:2_500);
  Alcotest.(check (list int)) "due at the new one" [ 2 ] (B.due a ~now:6_500)

let () =
  Alcotest.run "bft"
    [
      ( "quorum",
        [
          Alcotest.test_case "minimal" `Quick test_quorum_minimal;
          Alcotest.test_case "undersized rejected" `Quick
            test_quorum_rejects_undersized;
          Alcotest.test_case "classic pbft bound" `Quick test_quorum_classic_pbft;
          Alcotest.test_case "tolerates" `Quick test_quorum_tolerates;
          Alcotest.test_case "leader rotation" `Quick test_leader_rotation;
          QCheck_alcotest.to_alcotest prop_quorum_intersection_contains_correct;
          QCheck_alcotest.to_alcotest prop_quorum_always_available;
        ] );
      ( "update",
        [
          Alcotest.test_case "digest ignores time" `Quick
            test_update_digest_ignores_submission_time;
          Alcotest.test_case "digest binds content" `Quick
            test_update_digest_distinguishes_content;
        ] );
      ( "exec_log",
        [
          Alcotest.test_case "append and chain" `Quick test_exec_log_append_and_chain;
          Alcotest.test_case "prefix equal" `Quick test_exec_log_prefix_equal;
          Alcotest.test_case "snapshot" `Quick test_exec_log_snapshot;
          Alcotest.test_case "nth" `Quick test_exec_log_nth;
          QCheck_alcotest.to_alcotest prop_exec_log_chain_detects_divergence;
        ] );
      ( "batch",
        [
          Alcotest.test_case "size flush" `Quick test_batch_size_flush;
          Alcotest.test_case "one arm per generation" `Quick
            test_batch_one_arm_per_generation;
          Alcotest.test_case "due before and after deadline" `Quick
            test_batch_due_deadline;
          Alcotest.test_case "shrinking policy makes due" `Quick
            test_batch_shrink_makes_due;
          Alcotest.test_case "max_batch=1 never arms" `Quick
            test_batch_singleton_never_arms;
          Alcotest.test_case "lengthened delay keeps the armed deadline" `Quick
            test_batch_lengthened_delay_keeps_deadline;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "delivery and partition" `Quick
            test_cluster_delivery_and_partition;
          Alcotest.test_case "latency override" `Quick test_cluster_latency_override;
        ] );
    ]
