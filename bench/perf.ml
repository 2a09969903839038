(* Wall-clock gates (PERF=1 bench mode), always at quick scale.

   The experiments check their own virtual-time shapes and oracles, and
   perfbench/ measures wall time per workload and per layer. This mode
   keeps the two wall-clock figures nothing else gates:

   - the E3 rate: simulated events per wall second of the quick-scale
     E3 run (30 virtual minutes, fault-free, telemetry off), which must
     stay at or above [e3_floor_events_per_sec];
   - the domains curve: a fixed mix of independent instances run
     through the Sim.Parallel pool at 1/2/4/8 domains. The merged
     digest must be identical at every domain count, and on hosts with
     at least 4 cores the 4-domain speedup must reach 3x.

   It reads and writes no file, and exits 1 on the first failed gate. *)

(* Half the quick-scale E3 rate measured in the release profile when
   this gate was introduced (818,642 events/s); never re-based since. *)
let e3_floor_events_per_sec = 409_321.

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "PERF FAIL: %s\n%!" msg;
      exit 1)
    fmt

let e3_gate () =
  let t0 = Unix.gettimeofday () in
  let sys, _ = Spire.Scenarios.fault_free ~duration_us:(30 * 60 * 1_000_000) () in
  let wall = Unix.gettimeofday () -. t0 in
  let events = Sim.Engine.processed (Spire.System.engine sys) in
  let rate = float_of_int events /. wall in
  Printf.printf "  E3 wall=%6.2fs events=%9d events/sec=%9.0f floor=%.0f\n%!"
    wall events rate e3_floor_events_per_sec;
  if rate < e3_floor_events_per_sec then
    fail "E3 %.0f events/sec below floor %.0f" rate e3_floor_events_per_sec

(* E8 throughput points plus E10 chaos soak seeds. A domain count above
   the host's cores is still run, so its digest is checked, but its
   wall time is not reported: oversubscribed domains measure the host,
   not the runner. *)
let domains_gate () =
  let cores = Sim.Parallel.default_domains () in
  let subs = [| 10; 20; 40; 80 |] in
  let n_soak = 4 in
  let jobs = Array.length subs + n_soak in
  Printf.printf
    "  E8 par sweep: %d jobs (%d throughput points + %d chaos soaks), cores=%d\n%!"
    jobs (Array.length subs) n_soak cores;
  let job i =
    if i < Array.length subs then begin
      let substations = subs.(i) in
      let _, r =
        Spire.Scenarios.throughput ~substations ~poll_interval_us:100_000
          ~duration_us:5_000_000 ()
      in
      Printf.sprintf "E8[%d]:confirmed=%d:views=%d" substations
        r.Spire.Scenarios.confirmed r.Spire.Scenarios.max_view
    end
    else begin
      let seed = Sim.Parallel.seed_of ~root:0x5EED5EEDL ~index:(i - Array.length subs) in
      let r = Chaos.Harness.soak ~seed () in
      Printf.sprintf "E10[%Ld]:confirmed=%d:clean=%b" seed
        r.Chaos.Harness.confirmed (Chaos.Harness.clean r)
    end
  in
  let walls =
    List.map
      (fun domains ->
        let t0 = Unix.gettimeofday () in
        let results = Sim.Parallel.run ~domains ~jobs job in
        let wall = Unix.gettimeofday () -. t0 in
        let digest =
          Cryptosim.Digest.to_hex
            (Cryptosim.Digest.of_string
               (String.concat ";" (Array.to_list results)))
        in
        if domains <= cores then
          Printf.printf
            "    domains=%d wall=%6.2fs instances/sec=%5.2f digest=%s\n%!"
            domains wall (float_of_int jobs /. wall) digest
        else
          Printf.printf
            "    domains=%d wall=not_measured (> %d cores) digest=%s\n%!"
            domains cores digest;
        (domains, wall, digest))
      [ 1; 2; 4; 8 ]
  in
  let _, wall1, digest1 = List.hd walls in
  List.iter
    (fun (domains, _, digest) ->
      if not (String.equal digest digest1) then
        fail
          "merged report digest diverges at domains=%d (%s vs %s) — parallel \
           runner is nondeterministic"
          domains digest digest1)
    walls;
  Printf.printf "  merged digests identical across 1/2/4/8 domains\n%!";
  if cores >= 4 then begin
    let _, wall4, _ = List.find (fun (d, _, _) -> d = 4) walls in
    let speedup = wall1 /. wall4 in
    Printf.printf "  par speedup at 4 domains: %.2fx\n%!" speedup;
    if speedup < 3. then
      fail "4-domain speedup %.2fx below the 3x floor (cores=%d)" speedup cores
  end
  else
    Printf.printf
      "  par speedup gate skipped: %d core(s), need >= 4 — digests checked, \
       speedup not asserted\n%!"
      cores

let run () =
  Printf.printf "PERF [quick scale]: wall-clock gates\n%!";
  e3_gate ();
  domains_gate ()
