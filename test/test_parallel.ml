(* Determinism regression tests for the ownership refactor and the
   domain-parallel sweep runner.

   The contract under test: a simulation instance is a pure function of
   its seed. Same seed -> bit-identical confirmed counts, byte ledgers
   and oracle verdicts, whether the instance runs alone, interleaved
   with another instance on one domain, or farmed across N domains by
   Sim.Parallel. Any hidden shared state (a module-level counter, a
   shared sink, a global RNG) breaks one of these checks. *)

(* Replica 0's execution log folded into one digest: sensitive to the
   content of every ordered update (RTU payloads are drawn from the
   seeded RNG), not just to counters — this is what actually separates
   two runs with different seeds. *)
let exec_digest sys =
  let log = Spire.System.exec_log sys 0 in
  let d = ref (Cryptosim.Digest.of_string "fp") in
  for i = 0 to Bft.Exec_log.length log - 1 do
    d := Cryptosim.Digest.combine !d (Bft.Exec_log.digest_at log i)
  done;
  Cryptosim.Digest.to_hex !d

let fingerprint sys =
  let net = Spire.System.net sys in
  let s = Overlay.Net.stats net in
  Printf.sprintf
    "exec=%s confirmed=%d submitted=%d processed=%d now=%d sub_b=%d del_b=%d \
     drop_b=%d wan_f=%d"
    (exec_digest sys)
    (Spire.System.confirmed_updates sys)
    (Spire.System.submitted_updates sys)
    (Sim.Engine.processed (Spire.System.engine sys))
    (Sim.Engine.now (Spire.System.engine sys))
    s.Overlay.Net.submitted_bytes s.Overlay.Net.delivered_bytes
    s.Overlay.Net.dropped_bytes
    (Overlay.Net.wan_frames net)

let run_instance ~seed ~duration_us =
  let cfg = { (Spire.System.default_config ()) with Spire.System.seed } in
  let sys = Spire.System.create cfg in
  Spire.System.start sys;
  Spire.System.run sys ~duration_us;
  sys

(* Satellite (b), first half: the same scenario + seed twice in one
   process must agree on every counter and byte ledger. *)
let test_same_seed_bit_identical () =
  let a = fingerprint (run_instance ~seed:0xFEEDL ~duration_us:2_000_000) in
  let b = fingerprint (run_instance ~seed:0xFEEDL ~duration_us:2_000_000) in
  Alcotest.(check string) "identical fingerprints" a b;
  let c = fingerprint (run_instance ~seed:0xBEEFL ~duration_us:2_000_000) in
  Alcotest.(check bool) "different seed actually diverges" true (a <> c)

(* Two systems stepped in alternating slices on one domain must each
   reproduce their solo run exactly. This is the regression test for
   the module-level state the refactor removed: the Modbus transaction
   counter (odd RTUs speak Modbus) and the shared disabled telemetry
   sink both leaked between instances when they were globals. *)
let test_interleaved_instances_independent () =
  let duration_us = 2_000_000 in
  let solo_a = fingerprint (run_instance ~seed:0xAAL ~duration_us) in
  let solo_b = fingerprint (run_instance ~seed:0xBBL ~duration_us) in
  let make seed =
    let cfg = { (Spire.System.default_config ()) with Spire.System.seed } in
    let sys = Spire.System.create cfg in
    Spire.System.start sys;
    sys
  in
  let a = make 0xAAL and b = make 0xBBL in
  let slice = 100_000 in
  for k = 1 to duration_us / slice do
    Sim.Engine.run (Spire.System.engine a) ~until_us:(k * slice);
    Sim.Engine.run (Spire.System.engine b) ~until_us:(k * slice)
  done;
  Alcotest.(check string) "A unchanged by interleaving" solo_a (fingerprint a);
  Alcotest.(check string) "B unchanged by interleaving" solo_b (fingerprint b)

(* The sweep runner's core promise: merged results are a pure function
   of the job set, independent of domain count and of which domain ran
   which job. *)
let test_one_vs_many_domains_identical () =
  let root = 0x5EEDL in
  let job i =
    let seed = Sim.Parallel.seed_of ~root ~index:i in
    fingerprint (run_instance ~seed ~duration_us:1_000_000)
  in
  let one = Sim.Parallel.run ~domains:1 ~jobs:5 job in
  let many = Sim.Parallel.run ~domains:4 ~jobs:5 job in
  Alcotest.(check (array string)) "merged results identical" one many

(* Same check at the chaos layer: soak_many reports (verdicts included)
   must not depend on the domain count. *)
let test_soak_many_domain_invariant () =
  let seeds = [ 104_736L; 209_465L ] in
  let show rs =
    List.map (fun r -> Format.asprintf "%a" Chaos.Harness.pp_report r) rs
  in
  let one = show (Chaos.Harness.soak_many ~domains:1 ~seeds ()) in
  let two = show (Chaos.Harness.soak_many ~domains:2 ~seeds ()) in
  Alcotest.(check (list string)) "reports identical across domain counts" one
    two

(* ------------------------------------------------------------------ *)
(* Pool mechanics *)

let test_pool_runs_every_job_once () =
  let jobs = 64 in
  let counts = Array.init jobs (fun _ -> Atomic.make 0) in
  let results =
    Sim.Parallel.run ~domains:4 ~jobs (fun i ->
        Atomic.incr counts.(i);
        i * i)
  in
  Alcotest.(check (array int)) "results in index order"
    (Array.init jobs (fun i -> i * i))
    results;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "job %d ran exactly once" i) 1
        (Atomic.get c))
    counts

let test_pool_empty_and_clamp () =
  Alcotest.(check (array int)) "zero jobs" [||]
    (Sim.Parallel.run ~domains:8 ~jobs:0 (fun i -> i));
  (* More domains than jobs: clamped, still correct. *)
  Alcotest.(check (array int)) "domains clamped to jobs" [| 0; 1 |]
    (Sim.Parallel.run ~domains:16 ~jobs:2 Fun.id)

let test_pool_raises_lowest_failing_index () =
  (* Several failing jobs: the re-raised exception must be the lowest
     index's, deterministically, after all workers drain. *)
  let ran = Atomic.make 0 in
  Alcotest.check_raises "lowest index wins" (Failure "job 2") (fun () ->
      ignore
        (Sim.Parallel.run ~domains:4 ~jobs:8 (fun i ->
             Atomic.incr ran;
             if i = 5 then failwith "job 5";
             if i = 2 then failwith "job 2";
             i)
          : int array));
  Alcotest.(check int) "every job still ran" 8 (Atomic.get ran)

let test_pool_rejects_negative_jobs () =
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Parallel.run: jobs < 0") (fun () ->
      ignore (Sim.Parallel.run ~jobs:(-1) Fun.id : int array))

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed is bit-identical" `Quick
            test_same_seed_bit_identical;
          Alcotest.test_case "interleaved instances independent" `Quick
            test_interleaved_instances_independent;
          Alcotest.test_case "1 vs 4 domains identical" `Quick
            test_one_vs_many_domains_identical;
          Alcotest.test_case "soak_many domain-invariant" `Slow
            test_soak_many_domain_invariant;
        ] );
      ( "pool",
        [
          Alcotest.test_case "every job exactly once" `Quick
            test_pool_runs_every_job_once;
          Alcotest.test_case "empty set and domain clamp" `Quick
            test_pool_empty_and_clamp;
          Alcotest.test_case "lowest failing index re-raised" `Quick
            test_pool_raises_lowest_failing_index;
          Alcotest.test_case "negative jobs rejected" `Quick
            test_pool_rejects_negative_jobs;
        ] );
    ]
