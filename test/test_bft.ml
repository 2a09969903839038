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

(* The pre-streaming formulation, kept as the oracle. *)
let old_update_digest u =
  Cryptosim.Digest.of_string
    ("update:" ^ string_of_int u.U.client ^ ":" ^ string_of_int u.U.client_seq
   ^ ":" ^ u.U.operation)

let prop_update_digest_matches_string =
  QCheck.Test.make ~count:1_000 ~name:"digest = digest of its string"
    QCheck.(
      triple
        (oneof [ int; oneofl [ min_int; max_int; 0; -9; -10 ] ])
        (oneof [ int_bound max_int; oneofl [ 0; 9; 10; max_int ] ])
        string)
    (fun (client, client_seq, operation) ->
      let u = U.create ~client ~client_seq ~operation ~submitted_us:0 in
      Cryptosim.Digest.equal (U.digest u) (old_update_digest u))

let test_update_digest_allocation () =
  let u =
    U.create ~client:4_000_017 ~client_seq:123_456 ~operation:"open breaker 3"
      ~submitted_us:0
  in
  let calls = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (U.digest u))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int calls in
  (* One accumulator and one boxed digest: 6 words. *)
  if words > 8. then Alcotest.failf "Update.digest allocates %.1f words" words

(* ------------------------------------------------------------------ *)
(* Exec log *)

let upd i =
  U.create ~client:0 ~client_seq:i ~operation:(string_of_int i) ~submitted_us:0

let test_exec_log_append_and_chain () =
  let l = L.create () in
  Alcotest.(check int) "pos 1" 1 (L.append l (upd 1));
  Alcotest.(check int) "pos 2" 2 (L.append l (upd 2));
  Alcotest.(check int) "length" 2 (L.length l)

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

(* The log as it was before the dense buffer: every remembered
   position in a hashtable. The new log must answer exactly as it did. *)
module Model_log = struct
  type t = {
    mutable len : int;
    mutable chain : Cryptosim.Digest.t;
    chains : (int, Cryptosim.Digest.t) Hashtbl.t;
  }

  let empty_chain = Cryptosim.Digest.of_string "exec-log-genesis"

  let create () =
    let chains = Hashtbl.create 97 in
    Hashtbl.replace chains 0 empty_chain;
    { len = 0; chain = empty_chain; chains }

  let append t update =
    t.len <- t.len + 1;
    t.chain <- Cryptosim.Digest.combine t.chain (U.digest update);
    Hashtbl.replace t.chains t.len t.chain;
    t.len

  let digest_at t pos = Hashtbl.find_opt t.chains pos

  let prefix_equal a b =
    let common = min a.len b.len in
    match (Hashtbl.find_opt a.chains common, Hashtbl.find_opt b.chains common) with
    | Some da, Some db -> Cryptosim.Digest.equal da db
    | _ -> true

  let install_snapshot t ~updates ~chain =
    t.len <- updates;
    t.chain <- chain;
    Hashtbl.reset t.chains;
    Hashtbl.replace t.chains updates chain
end

type log_op = Append of int | Install of int * int

let prop_exec_log_matches_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (12, map (fun k -> Append k) (int_bound 3));
          (1, map2 (fun u c -> Install (u, c)) (int_bound 300) (int_bound 3));
        ])
  in
  let print = function
    | Append k -> Printf.sprintf "A%d" k
    | Install (u, c) -> Printf.sprintf "I(%d,%d)" u c
  in
  QCheck.Test.make ~count:200 ~name:"dense log matches hashtable model"
    QCheck.(
      make
        ~print:(Print.list (Print.pair Print.bool print))
        Gen.(list_size (int_bound 250) (pair bool op)))
    (fun ops ->
      let a = L.create () and b = L.create () in
      let ma = Model_log.create () and mb = Model_log.create () in
      let same l m =
        L.length l = m.Model_log.len
        && Cryptosim.Digest.equal (L.chain_digest l) m.Model_log.chain
        && List.for_all
             (fun pos ->
               match (Model_log.digest_at m pos, L.digest_at l pos) with
               | Some d, got -> Cryptosim.Digest.equal d got
               | None, _ -> false
               | exception Invalid_argument _ -> Model_log.digest_at m pos = None)
             (List.init (m.Model_log.len + 4) (fun i -> i - 2))
      in
      List.for_all
        (fun (left, op) ->
          let l, m = if left then (a, ma) else (b, mb) in
          (match op with
          | Append k ->
            let u = upd k in
            Alcotest.(check int) "position" (Model_log.append m u) (L.append l u)
          | Install (updates, c) ->
            let chain = Cryptosim.Digest.of_string (string_of_int c) in
            L.install_snapshot l ~updates ~chain;
            Model_log.install_snapshot m ~updates ~chain);
          same l m && L.prefix_equal a b = Model_log.prefix_equal ma mb)
        ops)

let test_exec_log_out_of_range () =
  let l = L.create () in
  ignore (L.append l (upd 1));
  let raises pos =
    match L.digest_at l pos with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative" true (raises (-1));
  Alcotest.(check bool) "past the end" true (raises 2);
  L.install_snapshot l ~updates:40 ~chain:(L.chain_digest l);
  Alcotest.(check bool) "below the snapshot base" true (raises 39);
  Alcotest.(check bool) "base is held" false (raises 40);
  (* Long enough to grow the buffer several times past the base. *)
  for i = 1 to 5_000 do
    ignore (L.append l (upd i))
  done;
  Alcotest.(check bool) "last held" false (raises 5_040);
  Alcotest.(check bool) "one past" true (raises 5_041)

let test_exec_log_prefix_across_snapshot () =
  (* [a] keeps its full history; [b] adopts a snapshot at 3 and both
     continue. Equal prefixes compare equal, a divergence after the
     base is seen, and a common length below [b]'s base compares
     trivially. *)
  let a = L.create () in
  List.iter (fun i -> ignore (L.append a (upd i))) [ 1; 2; 3 ];
  let b = L.create () in
  L.install_snapshot b ~updates:3 ~chain:(L.chain_digest a);
  ignore (L.append a (upd 4));
  ignore (L.append b (upd 4));
  Alcotest.(check bool) "same continuation" true (L.prefix_equal a b);
  ignore (L.append a (upd 5));
  ignore (L.append b (upd 6));
  Alcotest.(check bool) "divergence after base" false (L.prefix_equal a b);
  let short = L.create () in
  ignore (L.append short (upd 9));
  Alcotest.(check bool) "below the base: trivially true" true
    (L.prefix_equal short b)

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
          QCheck_alcotest.to_alcotest prop_update_digest_matches_string;
          Alcotest.test_case "digest allocation" `Quick
            test_update_digest_allocation;
        ] );
      ( "exec_log",
        [
          Alcotest.test_case "append and chain" `Quick test_exec_log_append_and_chain;
          Alcotest.test_case "prefix equal" `Quick test_exec_log_prefix_equal;
          Alcotest.test_case "snapshot" `Quick test_exec_log_snapshot;
          QCheck_alcotest.to_alcotest prop_exec_log_chain_detects_divergence;
          QCheck_alcotest.to_alcotest prop_exec_log_matches_model;
          Alcotest.test_case "digest_at out of range" `Quick
            test_exec_log_out_of_range;
          Alcotest.test_case "prefix across snapshot" `Quick
            test_exec_log_prefix_across_snapshot;
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
