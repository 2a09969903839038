(* Perf-trajectory harness (PERF=1 bench mode).

   Runs the three throughput-critical experiment workloads — E2
   (fault-free latency), E3 (long fault-free soak) and E6 (flooded
   overlay under attack) — and reports wall-clock seconds plus
   simulated-events-per-second for each, alongside manual-loop codec
   microbenchmarks comparing a full envelope encode against the
   measured-size pass that replaced it on the send path.

   Results go to stdout and to [BENCH_PERF.json] in the current
   directory, so successive sessions can track the perf trajectory in
   version control. The JSON carries:

   - the pre-optimisation baseline (release profile, quick scale),
     recorded once when this harness was introduced;
   - a sticky [floor_events_per_sec]: established on the first run as
     half the measured E3 events/sec, then re-read from the existing
     file on later runs. At quick scale the harness exits non-zero if
     E3 throughput falls below the floor — a regression gate for the
     hot path. *)

let json_path = "BENCH_PERF.json"

(* Release-profile, quick-scale measurements taken immediately before
   the zero-allocation hot-path work, for the speedup column. *)
let pre_pr_e2_wall_s = 7.73
let pre_pr_e3_wall_s = 57.48
let pre_pr_e3_events_per_sec = 479_685.
let pre_pr_e6_wall_s = 12.19

let sec s = s * 1_000_000
let minutes m = m * 60 * 1_000_000
let hours h = h * 3600 * 1_000_000

type run = { id : string; wall_s : float; events : int }

let events_per_sec r =
  if r.wall_s <= 0. then 0. else float_of_int r.events /. r.wall_s

let timed id f =
  let t0 = Unix.gettimeofday () in
  let sys = f () in
  let wall_s = Unix.gettimeofday () -. t0 in
  let events = Sim.Engine.processed (Spire.System.engine sys) in
  let r = { id; wall_s; events } in
  Printf.printf "  %-4s wall=%6.2fs events=%9d events/sec=%9.0f\n%!" id wall_s
    events (events_per_sec r);
  r

let workloads ~scale_full () =
  let e2 =
    timed "E2" (fun () ->
        let dur = if scale_full then hours 1 else minutes 5 in
        fst (Spire.Scenarios.fault_free ~duration_us:dur ()))
  in
  let e3 =
    timed "E3" (fun () ->
        let dur = if scale_full then hours 30 else minutes 30 in
        fst (Spire.Scenarios.fault_free ~duration_us:dur ()))
  in
  let e6 =
    timed "E6" (fun () ->
        let dur = if scale_full then minutes 2 else sec 20 in
        fst
          (Spire.Scenarios.link_degradation ~mode:Overlay.Net.Flood ~factor:20.
             ~attack_from_us:(dur / 4) ~duration_us:dur ()))
  in
  (e2, e3, e6)

(* E8 batch-size sweep: constrained-flooding dissemination at a
   saturating per-endpoint rate, batching degree 1/4/16/64. Recorded
   so the trajectory file tracks the amortisation win (and would
   expose a regression that quietly re-inflated the per-update
   flooding cost). *)

type batch_point = {
  max_batch : int;
  confirmed_per_sec : float;
  p50_ms : float;
  p99_ms : float;
  wire_kb_per_update : float;
}

let e8_batch_sweep ~scale_full () =
  let duration = if scale_full then sec 15 else sec 5 in
  let substations = 16 in
  Printf.printf "  E8 batch sweep: flooding, %d substations at 1000 polls/s, %ds\n%!"
    substations (duration / 1_000_000);
  List.map
    (fun max_batch ->
      let sys, r =
        Spire.Scenarios.throughput
          ~tweak:(fun c ->
            { c with Spire.System.dissemination = Overlay.Net.Flood })
          ~max_batch ~substations ~poll_interval_us:1_000 ~duration_us:duration
          ()
      in
      let secs = float_of_int duration /. 1e6 in
      let confirmed_per_sec = float_of_int r.Spire.Scenarios.confirmed /. secs in
      let h = r.Spire.Scenarios.hist in
      let pct p =
        if Stats.Histogram.count h > 0 then Stats.Histogram.percentile h p
        else nan
      in
      let wire_bytes =
        (Overlay.Net.stats (Spire.System.net sys)).Overlay.Net.submitted_bytes
      in
      let point =
        {
          max_batch;
          confirmed_per_sec;
          p50_ms = pct 50.;
          p99_ms = pct 99.;
          wire_kb_per_update =
            float_of_int wire_bytes /. 1e3
            /. float_of_int (max 1 r.Spire.Scenarios.confirmed);
        }
      in
      Printf.printf
        "    batch=%-3d confirmed/s=%7.0f p50=%6.1fms p99=%6.1fms wire \
         KB/upd=%6.2f\n%!"
        max_batch confirmed_per_sec point.p50_ms point.p99_ms
        point.wire_kb_per_update;
      point)
    [ 1; 4; 16; 64 ]

(* E12 fleet sweep: the register-mapped device fleet at 1k/10k/100k
   devices. Recorded so the trajectory file tracks the confirmed-event
   rate and per-device wire cost of the hierarchical-aggregation path;
   a sticky floor on the 10k point's confirmed events/sec gates the
   fleet hot path the way [floor_events_per_sec] gates E3. *)

type fleet_point = {
  fleet_devices : int;
  fleet_concentrators : int;
  confirmed_events_per_sec : float;
  fleet_confirmed_writes : int;
  wire_bytes_per_device : float;
  fleet_churn : int;
  fleet_wall_s : float;
}

let e12_fleet_sweep ~scale_full () =
  let duration = if scale_full then sec 30 else sec 10 in
  let secs = float_of_int duration /. 1e6 in
  Printf.printf "  E12 fleet sweep: register-mapped device fleet, %ds runs\n%!"
    (duration / 1_000_000);
  List.map
    (fun devices ->
      let concentrators = min 64 (max 4 (devices / 2500)) in
      let t0 = Unix.gettimeofday () in
      let sys, _ =
        Spire.Scenarios.fleet ~concentrators ~devices ~duration_us:duration ()
      in
      let wall = Unix.gettimeofday () -. t0 in
      let s = Spire.System.fleet_stats sys in
      let field_bytes =
        List.fold_left
          (fun acc (kind, _, bytes) ->
            if kind = "field/advert" || kind = "field/report" then acc + bytes
            else acc)
          0 (Spire.System.wire_traffic sys)
      in
      let point =
        {
          fleet_devices = devices;
          fleet_concentrators = concentrators;
          confirmed_events_per_sec =
            float_of_int s.Field.Concentrator.confirmed_events /. secs;
          fleet_confirmed_writes = s.Field.Concentrator.confirmed_writes;
          wire_bytes_per_device =
            float_of_int field_bytes /. float_of_int devices;
          fleet_churn = s.Field.Concentrator.churn;
          fleet_wall_s = wall;
        }
      in
      Printf.printf
        "    devices=%-6d conc=%-2d conf events/s=%8.0f writes=%3d wire \
         B/dev=%6.1f churn=%5d wall=%6.2fs\n%!"
        devices concentrators point.confirmed_events_per_sec
        point.fleet_confirmed_writes point.wire_bytes_per_device
        point.fleet_churn wall;
      point)
    [ 1_000; 10_000; 100_000 ]

(* E13 adaptive sweep: the two-level controller against the E6 WAN
   delay attack, next to the static arms it must bracket. Recorded so
   the trajectory file tracks the controller's converged p99 (and
   would expose a regression that slowed detection or broke the
   validated knob path — journal_ok must stay true, applied > 0). *)

type e13_point = {
  e13_arm : string;
  e13_post_p99_ms : float;
  e13_conv_p99_ms : float;
  e13_applied : int;
  e13_rejected : int;
  e13_journal_ok : bool;
}

let e13_sweep ~scale_full () =
  let duration = if scale_full then minutes 4 else sec 40 in
  let attack_from = duration / 4 in
  let converged_from = attack_from + (duration / 4) in
  Printf.printf
    "  E13 adaptive sweep: 20x WAN delay from t=%ds, converged window from \
     t=%ds\n%!"
    (attack_from / 1_000_000) (converged_from / 1_000_000);
  List.map
    (fun (arm, controller, mode) ->
      let _, r =
        Spire.Scenarios.adaptive ~controller ~mode
          ~attack:(Spire.Scenarios.Wan_delay 20.) ~attack_from_us:attack_from
          ~duration_us:duration ()
      in
      let conv =
        Spire.Scenarios.post_attack_p99
          r.Spire.Scenarios.base.Spire.Scenarios.series ~from_us:converged_from
      in
      let point =
        {
          e13_arm = arm;
          e13_post_p99_ms = r.Spire.Scenarios.post_attack_p99_ms;
          e13_conv_p99_ms = conv;
          e13_applied = r.Spire.Scenarios.knob_applied;
          e13_rejected = r.Spire.Scenarios.knob_rejected;
          e13_journal_ok = r.Spire.Scenarios.journal_consistent;
        }
      in
      Printf.printf
        "    %-16s post p99=%7.1fms conv p99=%7.1fms knobs=%d/%d journal=%s\n%!"
        arm point.e13_post_p99_ms point.e13_conv_p99_ms point.e13_applied
        point.e13_rejected
        (if point.e13_journal_ok then "ok" else "INCONSISTENT");
      point)
    [
      ("adaptive", true, Overlay.Net.Shortest);
      ("static_shortest", false, Overlay.Net.Shortest);
      ("static_flood", false, Overlay.Net.Flood);
    ]

(* ------------------------------------------------------------------ *)
(* Domains-scaling curve: a fixed mixed workload of independent
   instances — E8 throughput points plus E10 chaos soak seeds — run
   through the Sim.Parallel work-stealing pool at 1/2/4/8 domains.
   Two things are recorded:

   - the merged digest, which must be byte-identical at every domain
     count (the pool's determinism contract: index-addressed results,
     per-instance seeds from Rng.derive) — a mismatch fails the run;
   - instances/sec per domain count, the scaling curve. A domain count
     above the host's cores is still run (its digest is checked) but its
     timing is recorded as "not_measured": oversubscribed domains
     measure the host, not the runner. The >= 3x speedup gate at 4
     domains only fires when the machine actually has >= 4 cores. *)

type par_point = {
  par_domains : int;
  par_wall_s : float option; (* None when [par_domains > cores] *)
  instances_per_sec : float option;
  par_digest : string;
}

let e8_par_sweep () =
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
          ~duration_us:(sec 5) ()
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
  let points =
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
        let measured = domains <= cores in
        let p =
          {
            par_domains = domains;
            par_wall_s = (if measured then Some wall else None);
            instances_per_sec =
              (if measured then Some (float_of_int jobs /. wall) else None);
            par_digest = digest;
          }
        in
        if measured then
          Printf.printf
            "    domains=%d wall=%6.2fs instances/sec=%5.2f digest=%s\n%!"
            domains wall (float_of_int jobs /. wall) digest
        else
          Printf.printf
            "    domains=%d wall=not_measured (> %d cores) digest=%s\n%!"
            domains cores digest;
        p)
      [ 1; 2; 4; 8 ]
  in
  (match points with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun p ->
        if not (String.equal p.par_digest first.par_digest) then begin
          Printf.printf
            "PERF FAIL: merged report digest diverges at domains=%d (%s vs %s) \
             — parallel runner is nondeterministic\n%!"
            p.par_domains p.par_digest first.par_digest;
          exit 1
        end)
      rest;
    Printf.printf "  merged digests identical across 1/2/4/8 domains\n%!");
  let gate =
    if cores >= 4 then begin
      let at n =
        Option.get (List.find (fun p -> p.par_domains = n) points).instances_per_sec
      in
      let speedup = at 4 /. at 1 in
      Printf.printf "  par speedup at 4 domains: %.2fx\n%!" speedup;
      if speedup < 3. then begin
        Printf.printf
          "PERF FAIL: 4-domain speedup %.2fx below the 3x floor (cores=%d)\n%!"
          speedup cores;
        exit 1
      end;
      "passed"
    end
    else begin
      Printf.printf
        "  par speedup gate skipped: %d core(s), need >= 4 — curve recorded, \
         assertion vacuous\n%!"
        cores;
      "skipped"
    end
  in
  (cores, gate, points)

(* ------------------------------------------------------------------ *)
(* Codec microbenches: full encode vs measured size, manual loops.     *)

let ns_per_op ~iters f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let microbenches () =
  let matrix = Array.init 6 (fun i -> Array.init 6 (fun j -> (i * 7) + j)) in
  let preprepare =
    Wire.Message.Prime_msg (0, Prime.Msg.Preprepare { view = 3; seq = 42; matrix })
  in
  let commit =
    Wire.Message.Prime_msg
      (0, Prime.Msg.Commit { view = 3; seq = 42; digest = Cryptosim.Digest.of_string "c" })
  in
  let group =
    Cryptosim.Threshold.create_group ~seed:1L ~members:[ 0; 1; 2; 3; 4; 5 ]
      ~threshold:2
  in
  let digest = Cryptosim.Digest.of_string "bench" in
  let reply =
    Wire.Message.Replica_reply
      {
        Scada.Reply.replica = 0;
        update_key = (1, 2);
        exec_index = 3;
        digest;
        share = Cryptosim.Threshold.sign_share group ~member:0 digest;
        body = Scada.Reply.Ack;
      }
  in
  let bench name msg =
    let encode_ns =
      ns_per_op ~iters:100_000 (fun () ->
          ignore (Wire.Envelope.encode ~sender:0 msg : string))
    in
    let size_ns =
      ns_per_op ~iters:1_000_000 (fun () ->
          ignore (Wire.Envelope.size ~sender:0 msg : int))
    in
    Printf.printf "  %-10s encode=%7.1f ns/op   measured size=%6.1f ns/op\n%!"
      name encode_ns size_ns;
    (name, encode_ns, size_ns)
  in
  let b1 = bench "preprepare" preprepare in
  let b2 = bench "commit" commit in
  let b3 = bench "reply" reply in
  [ b1; b2; b3 ]

(* ------------------------------------------------------------------ *)
(* Sticky floor: parse it back out of an existing BENCH_PERF.json.     *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

let existing_float key =
  if not (Sys.file_exists json_path) then None
  else begin
    let ic = open_in json_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match find_sub s (Printf.sprintf "%S:" key) with
    | None -> None
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length s
        && (match s.[!stop] with
           | '0' .. '9' | '.' | ' ' | '-' -> true
           | _ -> false)
      do
        incr stop
      done;
      float_of_string_opt (String.trim (String.sub s start (!stop - start)))
  end

let write_json ~scale ~floor ~e12_floor ~cores ~e2 ~e3 ~e6 ~e8 ~e12 ~e13
    ~par_gate ~par ~micros =
  let oc = open_out json_path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"schema\": \"spire-bench-perf/1\",\n";
  p "  \"scale\": \"%s\",\n" scale;
  p "  \"cores\": %d,\n" cores;
  p "  \"floor_events_per_sec\": %.0f,\n" floor;
  p "  \"e12_floor_events_per_sec\": %.0f,\n" e12_floor;
  p "  \"pre_pr\": {\n";
  p "    \"note\": \"release profile, quick scale, before the zero-allocation hot-path work\",\n";
  p "    \"e2_wall_s\": %.2f,\n" pre_pr_e2_wall_s;
  p "    \"e3_wall_s\": %.2f,\n" pre_pr_e3_wall_s;
  p "    \"e3_events_per_sec\": %.0f,\n" pre_pr_e3_events_per_sec;
  p "    \"e6_wall_s\": %.2f\n" pre_pr_e6_wall_s;
  p "  },\n";
  p "  \"runs\": [\n";
  let run_line last r =
    p "    { \"id\": \"%s\", \"wall_s\": %.2f, \"events\": %d, \"events_per_sec\": %.0f }%s\n"
      r.id r.wall_s r.events (events_per_sec r)
      (if last then "" else ",")
  in
  run_line false e2;
  run_line false e3;
  run_line true e6;
  p "  ],\n";
  p "  \"e8_batch_sweep\": [\n";
  let rec batch_lines = function
    | [] -> ()
    | (b : batch_point) :: rest ->
      p
        "    { \"max_batch\": %d, \"confirmed_per_sec\": %.0f, \"p50_ms\": \
         %.1f, \"p99_ms\": %.1f, \"wire_kb_per_update\": %.2f }%s\n"
        b.max_batch b.confirmed_per_sec b.p50_ms b.p99_ms b.wire_kb_per_update
        (if rest = [] then "" else ",");
      batch_lines rest
  in
  batch_lines e8;
  p "  ],\n";
  p "  \"e12_fleet_sweep\": [\n";
  let rec fleet_lines = function
    | [] -> ()
    | (f : fleet_point) :: rest ->
      p
        "    { \"devices\": %d, \"concentrators\": %d, \
         \"confirmed_events_per_sec\": %.0f, \"confirmed_writes\": %d, \
         \"wire_bytes_per_device\": %.1f, \"link_churn\": %d, \"wall_s\": \
         %.2f }%s\n"
        f.fleet_devices f.fleet_concentrators f.confirmed_events_per_sec
        f.fleet_confirmed_writes f.wire_bytes_per_device f.fleet_churn
        f.fleet_wall_s
        (if rest = [] then "" else ",");
      fleet_lines rest
  in
  fleet_lines e12;
  p "  ],\n";
  p "  \"e13_adaptive\": [\n";
  let rec e13_lines = function
    | [] -> ()
    | (pt : e13_point) :: rest ->
      p
        "    { \"arm\": \"%s\", \"post_attack_p99_ms\": %.1f, \
         \"converged_p99_ms\": %.1f, \"knobs_applied\": %d, \
         \"knobs_rejected\": %d, \"journal_ok\": %b }%s\n"
        pt.e13_arm pt.e13_post_p99_ms pt.e13_conv_p99_ms pt.e13_applied
        pt.e13_rejected pt.e13_journal_ok
        (if rest = [] then "" else ",");
      e13_lines rest
  in
  e13_lines e13;
  p "  ],\n";
  p "  \"e8_par_sweep\": {\n";
  p "    \"gate\": \"%s\",\n" par_gate;
  p "    \"points\": [\n";
  let rec par_lines = function
    | [] -> ()
    | (pt : par_point) :: rest ->
      let num fmt = function
        | Some v -> Printf.sprintf fmt v
        | None -> "\"not_measured\""
      in
      p
        "      { \"domains\": %d, \"wall_s\": %s, \"instances_per_sec\": \
         %s, \"digest\": \"%s\" }%s\n"
        pt.par_domains (num "%.2f" pt.par_wall_s)
        (num "%.2f" pt.instances_per_sec) pt.par_digest
        (if rest = [] then "" else ",");
      par_lines rest
  in
  par_lines par;
  p "    ]\n";
  p "  },\n";
  p "  \"speedup_e3_wall_vs_pre_pr\": %.2f,\n" (pre_pr_e3_wall_s /. e3.wall_s);
  p "  \"micro_ns_per_op\": {\n";
  let rec emit = function
    | [] -> ()
    | (name, enc, sz) :: rest ->
      p "    \"envelope_encode_%s\": %.1f,\n" name enc;
      p "    \"measured_size_%s\": %.1f%s\n" name sz
        (if rest = [] then "" else ",");
      emit rest
  in
  emit micros;
  p "  }\n";
  p "}\n";
  close_out oc

let run ~scale_full () =
  Printf.printf "PERF %s: wall-clock + simulated events/sec\n%!"
    (if scale_full then "[full scale]" else "[quick scale]");
  let e2, e3, e6 = workloads ~scale_full () in
  let e8 = e8_batch_sweep ~scale_full () in
  let e12 = e12_fleet_sweep ~scale_full () in
  let e13 = e13_sweep ~scale_full () in
  let cores, par_gate, par = e8_par_sweep () in
  let micros = microbenches () in
  let floor =
    match existing_float "floor_events_per_sec" with
    | Some f ->
      Printf.printf "  floor: %.0f events/sec (from existing %s)\n%!" f json_path;
      f
    | None ->
      let f = Float.round (0.5 *. events_per_sec e3) in
      Printf.printf "  floor: %.0f events/sec (established: half of measured E3)\n%!" f;
      f
  in
  (* The fleet floor gates the 10k-device point's confirmed-event rate
     (the middle of the sweep: large enough to exercise the aggregation
     path, small enough to stay robust on loaded CI hosts). *)
  let e12_rate_10k =
    match List.find_opt (fun f -> f.fleet_devices = 10_000) e12 with
    | Some f -> f.confirmed_events_per_sec
    | None -> 0.
  in
  let e12_floor =
    match existing_float "e12_floor_events_per_sec" with
    | Some f ->
      Printf.printf "  e12 floor: %.0f conf events/sec (from existing %s)\n%!"
        f json_path;
      f
    | None ->
      let f = Float.round (0.5 *. e12_rate_10k) in
      Printf.printf
        "  e12 floor: %.0f conf events/sec (established: half of measured 10k \
         point)\n%!"
        f;
      f
  in
  write_json ~scale:(if scale_full then "full" else "quick") ~floor ~e12_floor
    ~cores ~e2 ~e3 ~e6 ~e8 ~e12 ~e13 ~par_gate ~par ~micros;
  Printf.printf "  wrote %s (E3 speedup vs pre-PR: %.2fx)\n%!" json_path
    (pre_pr_e3_wall_s /. e3.wall_s);
  (* The floors were measured at quick scale; only enforce them there. *)
  if (not scale_full) && events_per_sec e3 < floor then begin
    Printf.printf "PERF FAIL: E3 %.0f events/sec below floor %.0f\n%!"
      (events_per_sec e3) floor;
    exit 1
  end;
  if (not scale_full) && e12_rate_10k < e12_floor then begin
    Printf.printf
      "PERF FAIL: E12 10k-device point %.0f conf events/sec below floor %.0f\n%!"
      e12_rate_10k e12_floor;
    exit 1
  end
