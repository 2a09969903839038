(* Benchmark harness: regenerates every table and figure of the
   reconstructed evaluation (experiments E1..E13, see DESIGN.md and
   EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                     # all experiments, quick scale
     EXPERIMENT=E4 dune exec bench/main.exe       # one experiment
     EXPERIMENT=E2,E4,E6 dune exec bench/main.exe # several, in table order
     SCALE=full dune exec bench/main.exe          # paper-scale durations
     PERF=1 dune exec bench/main.exe              # wall-clock gates (bench/perf.ml)
     PAR=4 EXPERIMENT=E10 dune exec bench/main.exe # farm instances over 4 domains

   The experiments are one table of records ([experiments] at the end).
   A record's [run] prints its tables and returns the shape statement it
   checks plus its oracle failures. The driver prints the section header
   and the shape line, reports each failure (a [Failure] the run raises
   is one) on stderr as "E<ID> FAILED: <msg>", and exits 1 once the
   selection has run if any experiment failed.

   Absolute numbers depend on the simulated substrate; the properties
   that must match the paper are the *shapes*: who wins, by what rough
   factor, and where behaviour changes. *)

open Spire

(* Shared validated env-knob parsing. A knob that is set but fails to
   parse aborts with exit 2 and prints its valid forms, so no garbage
   value can silently select a default or an empty selection. *)
let env_knob name ~valid parse =
  match Sys.getenv_opt name with
  | None -> None
  | Some raw -> (
    match parse (String.trim raw) with
    | Some v -> Some v
    | None ->
      Printf.eprintf "%s=%S is invalid\nvalid forms for %s=: %s\n" name raw name
        valid;
      exit 2)

let scale_full =
  Option.value ~default:false
    (env_knob "SCALE" ~valid:"quick | full" (fun s ->
         match String.lowercase_ascii s with
         | "quick" -> Some false
         | "full" -> Some true
         | _ -> None))

(* PERF=1 runs the wall-clock gates of bench/perf.ml instead of the
   experiments; they always run at quick scale. *)
let perf_mode =
  Option.value ~default:false
    (env_knob "PERF" ~valid:"0 | 1" (function
      | "0" -> Some false
      | "1" -> Some true
      | _ -> None))

(* PAR=N — farm the independent scenario instances (E8 sweep points,
   E10 chaos soak seeds, E12 fleet points) across N OCaml domains via
   Sim.Parallel. Default 1: every instance runs inline, no domains
   spawned. Output is byte-identical for any value — results are
   collected into index-addressed arrays and printed in order after the
   join. *)
let par_domains =
  Option.value ~default:1
    (env_knob "PAR" ~valid:"a positive integer (e.g. PAR=4)" (fun s ->
         match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None))

type outcome = { shape : string; failures : string list }
type experiment = { id : string; title : string; run : unit -> outcome }

let pass shape = { shape; failures = [] }
let scaled ~quick ~full = if scale_full then full else quick
let sec s = s * 1_000_000
let minutes m = m * 60 * 1_000_000
let hours h = h * 3600 * 1_000_000
let pct hist p = Stats.Histogram.percentile hist p
let f1 = Printf.sprintf "%.1f"
let with_telemetry c = { c with System.telemetry = true }

let print_table ~title ~columns rows =
  let table = Stats.Table.create ~title ~columns in
  List.iter (Stats.Table.add_row table) rows;
  Stats.Table.print table

let latency_columns =
  [ "scenario"; "confirmed"; "mean ms"; "p50"; "p90"; "p99"; "max"; "views" ]

let latency_row name (r : Scenarios.latency_result) =
  let h = r.hist in
  if Stats.Histogram.count h = 0 then [ name; "0"; "-"; "-"; "-"; "-"; "-"; "0" ]
  else
    [
      name;
      string_of_int r.confirmed;
      f1 (Stats.Histogram.mean h);
      f1 (pct h 50.);
      f1 (pct h 90.);
      f1 (pct h 99.);
      f1 (Stats.Histogram.max_value h);
      string_of_int r.max_view;
    ]

(* Confirmations of [series] per [bucket_us] interval (E3, E7); [label]
   renders an interval's start time. *)
let timeline_table ~title ~columns ~label ~bucket_us series =
  print_table ~title ~columns
    (List.map
       (fun (start, summary) ->
         [
           label start;
           string_of_int (Stats.Summary.count summary);
           f1 (Stats.Summary.mean summary);
           f1 (Stats.Summary.max_value summary);
         ])
       (Stats.Timeseries.bucketed series ~bucket_us))

(* Machine-readable confirmed-rate timeline: one JSON line per
   experiment with fixed 2 s buckets, for plotting scripts (and the
   release smoke) to consume without scraping the human tables. *)
let emit_timeline ~experiment series =
  let bucket_us = 2_000_000 in
  let buckets =
    Stats.Timeseries.bucketed series ~bucket_us
    |> List.map (fun (start, summary) ->
           Printf.sprintf
             "{\"start_us\":%d,\"confirmed\":%d,\"mean_ms\":%.2f,\"max_ms\":%.2f}"
             start
             (Stats.Summary.count summary)
             (Stats.Summary.mean summary)
             (Stats.Summary.max_value summary))
  in
  Printf.printf
    "RECONFIG_TIMELINE {\"experiment\":%S,\"bucket_us\":%d,\"buckets\":[%s]}\n%!"
    experiment bucket_us
    (String.concat "," buckets)

(* One latency-attribution table per named run (E4, E6), each followed
   by its per-hop net table when [net]. *)
let print_attributions ?(net = false) runs =
  List.iter
    (fun (name, sink) ->
      Telemetry.Attribution.print
        ~title:(Printf.sprintf "attribution — %s (µs, virtual)" name)
        sink;
      if net then
        Telemetry.Attribution.print_net
          ~title:(Printf.sprintf "per-hop net spans — %s (µs, virtual)" name)
          sink)
    runs

(* Per-shard execution summary (E2/E3): how the event load and heap
   pressure spread over the control heap and the site/field heaps. *)
let shard_summary sys =
  let engine = System.engine sys in
  let fmt get =
    String.concat " "
      (List.init (Sim.Engine.shards engine) (fun s ->
           Printf.sprintf "%s=%d"
             (if s = 0 then "ctrl" else Printf.sprintf "s%d" s)
             (get s)))
  in
  Printf.printf "  shard events: %s\n" (fmt (Sim.Engine.processed_of engine));
  Printf.printf "  shard heap hi-water: %s\n"
    (fmt (Sim.Engine.heap_hi_water engine));
  Printf.printf "%!"

(* E1: configuration table *)

let e1 () =
  print_table ~title:"n = 3f + 2k + 1 spread so any site can be lost"
    ~columns:[ "f"; "k"; "sites"; "n"; "quorum"; "distribution"; "site-loss ok" ]
    (List.map
       (fun (c : Config_calc.configuration) ->
         [
           string_of_int c.f;
           string_of_int c.k;
           string_of_int (List.length c.sites);
           string_of_int c.n;
           string_of_int (Config_calc.quorum ~f:c.f ~k:c.k);
           String.concat "+"
             (List.map
                (fun (kind, size) ->
                  Printf.sprintf "%d%s" size
                    (match kind with
                    | Config_calc.Control_center -> "cc"
                    | Config_calc.Data_center -> "dc"))
                c.sites);
           (if Config_calc.tolerates_site_loss c then "yes" else "NO");
         ])
       (Config_calc.standard_table ()));
  pass "flagship f=1,k=1 over 4 sites needs exactly 6 replicas (2cc+2cc+1dc+1dc)"

(* E2: fault-free wide-area latency distribution *)

let e2 () =
  let sys, r =
    Scenarios.fault_free
      ~config:(with_telemetry (System.default_config ()))
      ~duration_us:(scaled ~quick:(minutes 5) ~full:(hours 1))
      ()
  in
  print_table ~title:"latency distribution" ~columns:latency_columns
    [ latency_row "wide-area fault-free" r ];
  print_table ~title:"CDF (fraction of updates within bound)"
    ~columns:[ "bound ms"; "fraction" ]
    (List.map
       (fun bound ->
         [
           Printf.sprintf "%.0f" bound;
           Printf.sprintf "%.5f" (Stats.Histogram.fraction_below r.hist bound);
         ])
       [ 20.; 30.; 50.; 75.; 100.; 150.; 200. ]);
  Printf.printf "  submitted=%d confirmed=%d (%.2f%%)\n" r.submitted r.confirmed
    (100. *. float_of_int r.confirmed /. float_of_int (max 1 r.submitted));
  let sink = System.telemetry sys in
  Telemetry.Attribution.print
    ~title:"latency attribution, fault-free (µs, virtual)" sink;
  Telemetry.Attribution.print_net sink;
  shard_summary sys;
  pass "nearly all updates within 100 ms over the wide area; no view changes"

(* E3: long continuous run *)

let e3 () =
  let duration = scaled ~quick:(minutes 30) ~full:(hours 30) in
  let sys, r = Scenarios.fault_free ~duration_us:duration () in
  timeline_table ~title:"per-interval latency (time buckets)"
    ~columns:[ "interval start"; "updates"; "mean ms"; "max ms" ]
    ~label:(fun start -> Printf.sprintf "%.0f min" (float_of_int start /. 60e6))
    ~bucket_us:(duration / 10) r.series;
  let h = r.hist in
  Printf.printf "  overall: n=%d mean=%.1fms p99.9=%.1fms within-200ms=%.5f\n"
    (Stats.Histogram.count h) (Stats.Histogram.mean h) (pct h 99.9)
    (Stats.Histogram.fraction_below h 200.);
  shard_summary sys;
  pass "flat latency profile over the whole run: no drift, no outage"

(* E4: leader slowdown attack, Prime vs PBFT *)

let e4 () =
  let duration = scaled ~quick:(sec 30) ~full:(minutes 5) in
  let attack_from = duration / 6 in
  let runs =
    List.map
      (fun (name, protocol, delay_us) ->
        let sys, r =
          Scenarios.leader_attack ~tweak:with_telemetry ~protocol ~delay_us
            ~attack_from_us:attack_from ~duration_us:duration ()
        in
        let sink = System.telemetry sys in
        let ordering_mean =
          Telemetry.Attribution.(phase_row (build sink) Telemetry.Span.Ordering)
          |> Option.fold ~none:nan ~some:(fun (row : Telemetry.Attribution.row) ->
                 row.mean_us)
        in
        (* Post-attack steady-state mean (skip the transition bucket). *)
        let post =
          Stats.Timeseries.bucketed r.series ~bucket_us:(duration / 10)
          |> List.filter (fun (start, _) -> start > attack_from + (duration / 10))
          |> List.map snd
          |> List.fold_left Stats.Summary.merge (Stats.Summary.create ())
        in
        (name, r, sink, Stats.Summary.mean post, ordering_mean))
      [
        ("prime, no attack", System.Prime_protocol, 0);
        ("prime, 500ms delay", System.Prime_protocol, 500_000);
        ("prime, 1s delay", System.Prime_protocol, 1_000_000);
        ("pbft, no attack", System.Pbft_protocol, 0);
        ("pbft, 500ms delay", System.Pbft_protocol, 500_000);
        ("pbft, 1s delay", System.Pbft_protocol, 1_000_000);
      ]
  in
  print_table
    ~title:"latency under a leader that delays proposals (attack from t/6)"
    ~columns:latency_columns
    (List.map (fun (name, r, _, _, _) -> latency_row name r) runs);
  (* Where does the injected delay land? Under PBFT the whole second
     shows up in the ordering phase; Prime rotates the leader so
     ordering stays near baseline after the view change. *)
  print_attributions (List.map (fun (name, _, sink, _, _) -> (name, sink)) runs);
  let at name = List.find (fun (n, _, _, _, _) -> n = name) runs in
  let _, _, _, prime_post, prime_ordering = at "prime, 1s delay" in
  let _, _, _, pbft_post, pbft_ordering = at "pbft, 1s delay" in
  Printf.printf
    "  post-attack steady-state mean: prime %.1fms vs pbft %.1fms (1s delay)\n"
    prime_post pbft_post;
  Printf.printf
    "  ordering-phase mean (1s delay): prime %.0fµs vs pbft %.0fµs — the \
     attack's delay lands in the ordering phase under PBFT\n"
    prime_ordering pbft_ordering;
  pass
    "Prime suspects and rotates the slow leader (views > 0), returning to \
     baseline latency; PBFT keeps it (views = 0) and every update pays the \
     injected delay"

(* E5: proactive recovery *)

let e5 () =
  let duration = scaled ~quick:(minutes 10) ~full:(hours 1) in
  let _, r, events =
    Scenarios.proactive_recovery ~rotation_period_us:(duration / 4)
      ~recovery_duration_us:(sec 10) ~duration_us:duration ()
  in
  print_table ~title:"latency with recoveries" ~columns:latency_columns
    [ latency_row "prime + proactive recovery" r ];
  let count phase =
    List.length (List.filter (fun (_, p, _) -> p = phase) events)
  in
  Printf.printf "  recoveries: %d begun, %d completed; confirmed %d/%d\n"
    (count `Begin) (count `Complete) r.confirmed r.submitted;
  pass
    "service continues through every rejuvenation; latency blips stay \
     bounded because n - k still holds a quorum"

(* E6: network delay attack vs dissemination mode (ablation A1) *)

let e6 () =
  let duration = scaled ~quick:(sec 20) ~full:(minutes 2) in
  let runs =
    List.map
      (fun (name, mode) ->
        let sys, r =
          Scenarios.link_degradation ~tweak:with_telemetry ~mode ~factor:20.
            ~attack_from_us:(duration / 4) ~duration_us:duration ()
        in
        (name, sys, r))
      [
        ("single shortest path (ablation)", Overlay.Net.Shortest);
        ("redundant 2 disjoint paths", Overlay.Net.Redundant 2);
        ("constrained flooding", Overlay.Net.Flood);
      ]
  in
  print_table ~title:"latency with primary inter-site links delayed 20x from t/4"
    ~columns:latency_columns
    (List.map (fun (name, _, r) -> latency_row name r) runs);
  let mb b = Printf.sprintf "%.2f" (float_of_int b /. 1e6) in
  print_table
    ~title:"wire bytes per dissemination mode (redundancy's bandwidth price)"
    ~columns:[ "mode"; "submitted MB"; "delivered MB"; "dropped MB"; "link tx MB" ]
    (List.map
       (fun (name, sys, _) ->
         let net = System.net sys in
         let s = Overlay.Net.stats net in
         let link_tx =
           List.fold_left
             (fun acc (lr : Overlay.Net.link_report) -> acc + lr.tx_bytes)
             0 (Overlay.Net.link_reports net)
         in
         [
           name;
           mb s.submitted_bytes;
           mb s.delivered_bytes;
           mb s.dropped_bytes;
           mb link_tx;
         ])
       runs);
  (* Where is the link delay absorbed? Under single-path routing every
     lifecycle phase that crosses the attacked WAN links inflates (the
     per-hop net tables show the propagation delay directly); with
     redundant/flooding dissemination the first clean copy wins and the
     lifecycle attribution stays near the fault-free baseline. *)
  print_attributions ~net:true
    (List.map (fun (name, sys, _) -> (name, System.telemetry sys)) runs);
  pass
    "single-path routing keeps trusting the attacked links and suffers the \
     full delay; redundant/flooding dissemination delivers the first clean \
     copy, keeping latency near baseline — and pays for it in wire bytes"

(* E6b: packet loss on WAN links (hop-by-hop recovery) *)

let e6b () =
  let duration = scaled ~quick:(sec 20) ~full:(minutes 2) in
  print_table ~title:"latency under sustained WAN packet loss"
    ~columns:([ "loss"; "mode" ] @ List.tl latency_columns)
    (List.concat_map
       (fun loss ->
         List.map
           (fun (name, mode) ->
             let _, r = Scenarios.packet_loss ~mode ~loss ~duration_us:duration () in
             Printf.sprintf "%.0f%%" (loss *. 100.)
             :: name :: List.tl (latency_row name r))
           [ ("shortest", Overlay.Net.Shortest); ("flood", Overlay.Net.Flood) ])
       [ 0.05; 0.2; 0.4 ]);
  pass
    "moderate loss costs only tail latency (per-hop retransmission); heavy \
     loss favours flooding, which needs only one clean copy on any path"

(* E7: loss of a control center *)

let e7 () =
  let duration = scaled ~quick:(sec 40) ~full:(minutes 4) in
  let fail_at = duration / 4 in
  let restore_at = duration * 5 / 8 in
  let _, r =
    Scenarios.site_failure ~site:0 ~fail_at_us:fail_at
      ~restore_at_us:(Some restore_at) ~duration_us:duration ()
  in
  timeline_table
    ~title:
      (Printf.sprintf "timeline (site 0 killed at %ds, restored at %ds)"
         (fail_at / 1_000_000) (restore_at / 1_000_000))
    ~columns:[ "interval"; "confirmations"; "mean ms"; "max ms" ]
    ~label:(fun start -> Printf.sprintf "%2ds" (start / 1_000_000))
    ~bucket_us:(duration / 20) r.series;
  emit_timeline ~experiment:"E7" r.series;
  Printf.printf "  confirmed %d/%d; views reached %d\n" r.confirmed r.submitted
    r.max_view;
  pass
    "a ~1-2s failover (leader rotation past the dead site), then full \
     service from the remaining sites; reconnection is seamless"

(* E8: throughput scaling *)

let e8 () =
  let duration = scaled ~quick:(sec 15) ~full:(minutes 1) in
  let secs = float_of_int duration /. 1e6 in
  (* Every sweep point builds its own system — independent instances,
     farmed across PAR= domains; rows are built in index order after
     the join, so the table is identical for any domain count. *)
  let results =
    Sim.Parallel.map ~domains:par_domains
      (fun substations ->
        let sys, r =
          Scenarios.throughput ~substations ~poll_interval_us:100_000
            ~duration_us:duration ()
        in
        let offered = float_of_int substations *. 10. in
        let confirmed_rate = float_of_int r.confirmed /. secs in
        let ratio = confirmed_rate /. offered in
        let p99 = if Stats.Histogram.count r.hist > 0 then pct r.hist 99. else nan in
        let ok = ratio > 0.97 && p99 < 500. in
        let wire_bytes = (Overlay.Net.stats (System.net sys)).submitted_bytes in
        let row =
          [
            string_of_int substations;
            Printf.sprintf "%.0f" offered;
            Printf.sprintf "%.0f" confirmed_rate;
            Printf.sprintf "%.3f" ratio;
            f1 p99;
            Printf.sprintf "%.2f" (float_of_int wire_bytes /. 1e6);
            (if ok then "yes" else "SATURATED");
          ]
        in
        let traffic =
          if substations = 40 then Some (System.wire_traffic sys) else None
        in
        (substations, ok, row, traffic))
      (scaled ~quick:[| 10; 20; 40; 80; 160; 320; 640 |]
         ~full:[| 10; 20; 40; 80; 160; 320; 640; 1280 |])
    |> Array.to_list
  in
  print_table ~title:"offered vs confirmed rate"
    ~columns:
      [
        "substations"; "offered/s"; "confirmed/s"; "ratio"; "p99 ms"; "wire MB";
        "ok";
      ]
    (List.map (fun (_, _, row, _) -> row) results);
  (* Per-message-class wire ledger (40-substation point): encoded frame
     sizes, not approximations — summary-matrix pre-prepares must dwarf
     the one-digest votes. *)
  Option.iter
    (fun traffic ->
      print_table
        ~title:"per-class wire traffic at 40 substations (exact encoded sizes)"
        ~columns:[ "message class"; "frames"; "bytes"; "avg frame B" ]
        (List.map
           (fun (kind, frames, bytes) ->
             [
               kind;
               string_of_int frames;
               string_of_int bytes;
               string_of_int (bytes / max 1 frames);
             ])
           traffic))
    (List.find_map (fun (_, _, _, traffic) -> traffic) results);
  (match List.find_opt (fun (_, ok, _, _) -> not ok) results with
  | Some (s, _, _, _) ->
    Printf.printf "  saturation first observed at %d substations\n" s
  | None -> Printf.printf "  no saturation within the sweep\n");
  (* Batch-size sweep: constrained-flooding dissemination (the paper's
     network-attack-resilient mode) at a per-endpoint rate that
     saturates the unbatched pipeline. Under flooding every frame
     crosses every overlay link, so the per-update flooding cost gates
     the confirmed rate directly — and batching amortises it: one
     envelope + one RSA authenticator per client batch, one po-request
     frame per pre-order block, one reply frame per destination group.
     The price is the batch-wait the deadline policy permits. *)
  let sweep_duration = scaled ~quick:(sec 5) ~full:(sec 15) in
  let sweep_secs = float_of_int sweep_duration /. 1e6 in
  let sweep_substations = 16 in
  let sweep_poll_us = 1_000 in
  let batch_results =
    Sim.Parallel.map ~domains:par_domains
      (fun max_batch ->
        let sys, r =
          Scenarios.throughput
            ~tweak:(fun c -> { c with System.dissemination = Overlay.Net.Flood })
            ~max_batch ~substations:sweep_substations
            ~poll_interval_us:sweep_poll_us ~duration_us:sweep_duration ()
        in
        let h = r.hist in
        let pct_or_nan p = if Stats.Histogram.count h > 0 then pct h p else nan in
        ( max_batch,
          float_of_int r.confirmed /. sweep_secs,
          pct_or_nan 50.,
          pct_or_nan 99.,
          (Overlay.Net.stats (System.net sys)).submitted_bytes,
          r.confirmed ))
      [| 1; 4; 16; 64 |]
  in
  (* The speedup column is relative to the batch=1 point, index 0. *)
  let _, base_rate, _, _, _, _ = batch_results.(0) in
  print_table
    ~title:
      (Printf.sprintf
         "batch-size sweep, flooding: %d substations at %d polls/s (offered \
          %d/s, deadline 10 ms)"
         sweep_substations (1_000_000 / sweep_poll_us)
         (sweep_substations * 1_000_000 / sweep_poll_us))
    ~columns:
      [ "max_batch"; "confirmed/s"; "p50 ms"; "p99 ms"; "wire MB"; "wire KB/upd" ]
    (List.map
       (fun (max_batch, confirmed_rate, p50, p99, wire_bytes, confirmed) ->
         [
           string_of_int max_batch;
           Printf.sprintf "%.0f (%.2fx)" confirmed_rate (confirmed_rate /. base_rate);
           f1 p50;
           f1 p99;
           Printf.sprintf "%.2f" (float_of_int wire_bytes /. 1e6);
           Printf.sprintf "%.2f"
             (float_of_int wire_bytes /. 1e3 /. float_of_int (max 1 confirmed));
         ])
       (Array.to_list batch_results));
  pass
    "latency stays flat well past the paper's 10-substation deployment; \
     saturation appears only at 1-2 orders of magnitude more load; \
     summary-matrix pre-prepare frames are several times heavier than \
     single-digest votes; under flooding at a saturating load, batching >= \
     8 at least doubles the confirmed rate at no worse than twice the p99, \
     because the per-update flooding cost is what gates throughput"

(* E9: intrusion campaign with diversity + proactive recovery *)

let e9 () =
  let duration = scaled ~quick:(hours 12) ~full:(hours 48) in
  let f = 1 in
  let runs =
    List.map
      (fun (name, diversity_on, recovery_on, reactive_on) ->
        let _, c =
          Scenarios.intrusion_campaign ~reactive_on ~diversity_on ~recovery_on
            ~duration_us:duration ()
        in
        (name, diversity_on && recovery_on, c))
      [
        ("diversity + recovery (Spire)", true, true, false);
        ("  + reactive recovery (extension)", true, true, true);
        ("diversity only (A4: no recovery)", true, false, false);
        ("recovery only (A3: no diversity)", false, true, false);
        ("neither (undefended)", false, false, false);
      ]
  in
  print_table
    ~title:
      (Printf.sprintf
         "attacker develops one exploit per 2 h; rotation every 1 h; run = %d \
          virtual hours"
         (duration / 3_600_000_000))
    ~columns:
      [
        "configuration"; "max simultaneous"; "total compromises"; "exploits";
        "time above f"; "mean hold"; "compromised at end"; "f exceeded?";
      ]
    (List.map
       (fun (name, _, (c : Scenarios.campaign_result)) ->
         [
           name;
           string_of_int c.max_simultaneous_compromised;
           string_of_int c.total_compromises;
           string_of_int c.exploits_developed;
           Printf.sprintf "%ds" (c.time_above_f_us / 1_000_000);
           Printf.sprintf "%ds" (c.mean_held_us / 1_000_000);
           string_of_int c.final_compromised;
           (if c.max_simultaneous_compromised > f then "YES" else "no");
         ])
       runs);
  (* Both defences hold the attacker at f; each ablation lets it past. *)
  let failures =
    List.filter_map
      (fun (name, defended, (c : Scenarios.campaign_result)) ->
        let held = c.max_simultaneous_compromised in
        if defended = (held <= f) then None
        else
          Some
            (Printf.sprintf "%s: max simultaneous %d, expected %s f=%d"
               (String.trim name) held
               (if defended then "<=" else ">")
               f))
      runs
  in
  {
    shape =
      "with both defences the attacker never holds more than f=1 replicas; \
       removing either lets compromises accumulate past f";
    failures;
  }

(* E10: chaos soak — random fault schedules vs the runtime oracles *)

let e10 () =
  let seeds = scaled ~quick:12 ~full:50 in
  (* Soak seeds are independent instances: PAR=N farms them across
     domains (Chaos.Harness.soak_many); reports come back in seed order
     so the table and dirty-report output never change with PAR. *)
  let seed_list = List.init seeds (fun i -> Int64.of_int (((i + 1) * 104_729) + 7)) in
  let reports = Chaos.Harness.soak_many ~domains:par_domains ~seeds:seed_list () in
  let result r =
    if Chaos.Harness.clean r then "CLEAN"
    else String.concat "," (List.map fst (Chaos.Harness.failures r))
  in
  let dirty =
    List.filter_map
      (fun (r : Chaos.Harness.report) ->
        if Chaos.Harness.clean r then None
        else begin
          Format.printf "%a@." Chaos.Harness.pp_report r;
          Some (Printf.sprintf "seed %Ld dirty: %s" r.seed (result r))
        end)
      reports
  in
  print_table
    ~title:
      (Printf.sprintf
         "%d seeded within-budget schedules (<= f Byzantine, <= k down, quorum \
          preserved); every oracle must stay green"
         seeds)
    ~columns:
      [
        "seed"; "faults"; "confirmed"; "min avail"; "worst ms"; "baseline p50";
        "post p50"; "result";
      ]
    (List.map
       (fun (r : Chaos.Harness.report) ->
         [
           Int64.to_string r.seed;
           string_of_int (List.length r.schedule.events);
           string_of_int r.confirmed;
           string_of_int r.min_available;
           Printf.sprintf "%.0f" r.worst_latency_ms;
           f1 r.baseline_p50_ms;
           f1 r.post_p50_ms;
           result r;
         ])
       reports);
  (* Non-vacuousness: an over-budget schedule (f + k + 1 simultaneous
     crashes) must both fail validation and trip the quorum watchdog
     when forced through anyway. *)
  let crash replica =
    Attack.Schedule.
      { at_us = 200_000; fault = Crash_restart { replica; down_us = 2_000_000 } }
  in
  let over =
    { Attack.Schedule.horizon_us = 3_000_000; events = List.map crash [ 0; 2; 4 ] }
  in
  let profile = Injector.profile_of_system (System.create (System.default_config ())) in
  let validated =
    match Attack.Schedule.validate ~profile over with
    | Ok () ->
      Printf.printf "  over-budget schedule WRONGLY validated\n";
      [ "over-budget schedule passed validation" ]
    | Error m ->
      Printf.printf "  validator rejects over-budget schedule: %s\n" m;
      []
  in
  let r = Chaos.Harness.run ~seed:424_242L ~schedule:over () in
  List.iter
    (fun (name, v) ->
      Format.printf "  forced anyway: %-10s %a@." name Oracle.Verdict.pp v)
    r.verdicts;
  {
    shape =
      Printf.sprintf
        "%d/%d within-budget schedules clean; failing seeds reproduce the \
         exact run; 3 simultaneous crashes drop availability below the \
         2f+k+1 quorum and the watchdog latches"
        (seeds - List.length dirty)
        seeds;
    failures = dirty @ validated;
  }

(* E11: online reconfiguration *)

let e11 () =
  let _, r =
    Scenarios.reconfiguration
      ~duration_us:(scaled ~quick:(sec 50) ~full:(minutes 2))
      ()
  in
  print_table
    ~title:
      "timeline: site 0 killed t=10s; failover (epoch 1, n=4) t=14s; hardware \
       healed t=22s; rejoin (epoch 2, n=6) t=26s; standby data center \
       admitted (epoch 3, n=8, k=2) t=38s"
    ~columns:[ "epoch"; "boundary exec"; "cutover t" ]
    (List.map
       (fun (e, boundary, time_us) ->
         [
           string_of_int e;
           string_of_int boundary;
           Printf.sprintf "%.1fs" (float_of_int time_us /. 1e6);
         ])
       r.cutovers);
  emit_timeline ~experiment:"E11" r.base.series;
  Printf.printf
    "  final epoch %d, n=%d; confirmed %d/%d; stale cross-epoch frames %d\n"
    r.final_epoch r.final_n r.base.confirmed r.base.submitted r.stale_frames;
  Format.printf "  epoch-safety oracle: %a (%d samples)@." Oracle.Verdict.pp
    r.epoch_safety r.epoch_observations;
  Printf.printf "  max confirmation gap after first fault: %.2fs\n"
    (float_of_int r.max_confirm_gap_us /. 1e6);
  let failures =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        (not (Oracle.Verdict.is_pass r.epoch_safety), "epoch-safety oracle failed");
        (r.final_epoch <> 3, Printf.sprintf "final epoch %d, expected 3" r.final_epoch);
        ( r.max_confirm_gap_us > 8_000_000,
          Printf.sprintf "confirmation gap %.2fs over 8s"
            (float_of_int r.max_confirm_gap_us /. 1e6) );
      ]
  in
  {
    shape =
      "three cutovers at deterministic boundaries; downtime bounded by the \
       failover window; zero safety violations while n shrinks to 4 and \
       grows to 8";
    failures;
  }

(* E12: fleet-scale field layer. Quick-scale floor on the 10,000-device
   point's confirmed events per virtual second: half the rate first
   recorded for it, 18,179. The point is large enough to exercise the
   aggregation path, and the rate is virtual-time, so the floor does
   not depend on the host. *)
let e12_floor_10k_events_per_sec = 9_090.

let e12 () =
  let duration = scaled ~quick:(sec 10) ~full:(sec 30) in
  let secs = float_of_int duration /. 1e6 in
  (* Output is byte-identical for any PAR= value: results land in an
     index-addressed array and print in order after the join. *)
  let results =
    Sim.Parallel.map ~domains:par_domains
      (fun devices ->
        (* Concentrator count grows with the fleet but is capped:
           hierarchical aggregation means the ordered stream sees
           concentrators, not devices. *)
        let concentrators = min 64 (max 4 (devices / 2500)) in
        let sys, r = Scenarios.fleet ~concentrators ~devices ~duration_us:duration () in
        let field_bytes =
          List.fold_left
            (fun acc (kind, _, bytes) ->
              if kind = "field/advert" || kind = "field/report" then acc + bytes
              else acc)
            0 (System.wire_traffic sys)
        in
        (devices, concentrators, System.fleet_stats sys, field_bytes, r))
      [| 1_000; 10_000; 100_000 |]
    |> Array.to_list
  in
  print_table
    ~title:
      (Printf.sprintf
         "fleet sweep, %.0fs runs: report-by-exception events fold into one \
          ordered aggregate per concentrator scan round"
         secs)
    ~columns:
      [
        "devices"; "conc"; "rounds"; "conf events/s"; "conf writes"; "wire B/dev";
        "link churn"; "dups"; "ordered/s";
      ]
    (List.map
       (fun ( devices,
              concentrators,
              (s : Field.Concentrator.stats),
              field_bytes,
              (r : Scenarios.latency_result) ) ->
         [
           string_of_int devices;
           string_of_int concentrators;
           string_of_int s.rounds;
           Printf.sprintf "%.0f" (float_of_int s.confirmed_events /. secs);
           string_of_int s.confirmed_writes;
           f1 (float_of_int field_bytes /. float_of_int devices);
           string_of_int s.churn;
           string_of_int s.dups_dropped;
           Printf.sprintf "%.0f" (float_of_int r.confirmed /. secs);
         ])
       results);
  let failures =
    List.filter_map
      (fun (devices, _, (s : Field.Concentrator.stats), _, _) ->
        let rate = float_of_int s.confirmed_events /. secs in
        if s.confirmed_events = 0 then
          Some (Printf.sprintf "no confirmed fleet events at %d devices" devices)
        else if
          (not scale_full) && devices = 10_000
          && rate < e12_floor_10k_events_per_sec
        then
          Some
            (Printf.sprintf
               "10k-device point %.0f conf events/s below floor %.0f" rate
               e12_floor_10k_events_per_sec)
        else None)
      results
  in
  {
    shape =
      "confirmed-event rate scales with fleet size while the ordered-op rate \
       stays near-flat (hierarchical aggregation); per-device wire bytes stay \
       O(1); link churn tracks the keep-alive loss rate";
    failures;
  }

(* E13: adaptive resilience — two-level controller vs static configs *)

let e13 () =
  let duration = scaled ~quick:(sec 40) ~full:(minutes 4) in
  let attack_from = duration / 4 in
  (* Converged window: every arm's steady-state p99 is measured from
     the same point, far enough past the attack for the controller's
     detection windows, escalation cooldowns, and the last straggler
     confirmations routed before a mode switch to have drained. Static
     arms are constant, so the window choice only strips their own
     transition bucket — the comparison stays fair. *)
  let converged_from = attack_from + (duration / 4) in
  let statics =
    [
      ("static shortest", Overlay.Net.Shortest);
      ("static k-disjoint(2)", Overlay.Net.Redundant 2);
      ("static flooding", Overlay.Net.Flood);
    ]
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* Per attack: the worst static arm's and the controller's converged
     p99. *)
  let per_attack =
    List.map
      (fun (attack_name, attack) ->
        let run_arm name ~controller ~mode =
          let _, r =
            Scenarios.adaptive ~controller ~mode ~attack
              ~attack_from_us:attack_from ~duration_us:duration ()
          in
          let conv =
            Scenarios.post_attack_p99 r.base.series ~from_us:converged_from
          in
          (* The knob oracle holds in every arm: the journal reconciles
             with the counters, the controller issues requests, and an
             arm without it never touches a knob at all. *)
          let requests = r.knob_applied + r.knob_rejected in
          if not r.journal_consistent then
            fail "%s under %s: knob journal does not reconcile" name attack_name;
          if controller && requests = 0 then
            fail "controller issued no knob requests under %s" attack_name;
          if (not controller) && requests <> 0 then
            fail "%s under %s: knob requests without a controller" name attack_name;
          ( conv,
            [
              name;
              string_of_int r.base.confirmed;
              f1 r.post_attack_p99_ms;
              f1 conv;
              string_of_int r.base.max_view;
              Printf.sprintf "%d/%d" r.knob_applied r.knob_rejected;
              (if r.journal_consistent then "reconciles" else "INCONSISTENT");
            ] )
        in
        let static_arms =
          List.map (fun (name, mode) -> run_arm name ~controller:false ~mode) statics
        in
        let adaptive_p99, adaptive_row =
          run_arm "adaptive (controller)" ~controller:true ~mode:Overlay.Net.Shortest
        in
        print_table
          ~title:
            (Printf.sprintf "%s from t=%ds; converged window from t=%ds"
               attack_name (attack_from / 1_000_000)
               (converged_from / 1_000_000))
          ~columns:
            [
              "arm"; "confirmed"; "post p99 ms"; "conv p99 ms"; "views";
              "knobs ok/rej"; "journal";
            ]
          (List.map snd static_arms @ [ adaptive_row ]);
        let static_p99s = List.map fst static_arms in
        let best = List.fold_left Float.min infinity static_p99s in
        let worst = List.fold_left Float.max 0. static_p99s in
        Printf.printf
          "  %s: best static %.1fms, worst static %.1fms, adaptive %.1fms \
           (%.2fx best)\n"
          attack_name best worst adaptive_p99 (adaptive_p99 /. best);
        if adaptive_p99 > 1.25 *. best then
          fail
            "adaptive converged p99 %.1fms exceeds 1.25x best static %.1fms \
             under %s"
            adaptive_p99 best attack_name;
        (worst, adaptive_p99))
      [
        ( "leader slowdown 1s (the E4 attack)",
          Attack.Schedule.Leader_delay { delay_us = 1_000_000; duration_us = duration } );
        ( "primary-WAN delay 20x (the E6 attack)",
          Attack.Schedule.Wan_delay { factor = 20.; duration_us = duration } );
      ]
  in
  (* Cross-attack comparison: a static configuration must be chosen
     without knowing the attack, so its figure of merit is its worst
     case. The controller's worst case must beat the worst static
     configuration's — that is the whole point of adapting instead of
     picking one mode. *)
  let worst_over pick =
    List.fold_left (fun acc a -> Float.max acc (pick a)) 0. per_attack
  in
  let worst_static = worst_over fst in
  let adaptive_worst = worst_over snd in
  Printf.printf
    "  worst case over both attacks: adaptive %.1fms vs worst static %.1fms\n"
    adaptive_worst worst_static;
  if adaptive_worst >= worst_static then
    fail
      "adaptive worst case %.1fms does not beat the worst static \
       configuration's %.1fms"
      adaptive_worst worst_static;
  {
    shape =
      "no single static configuration is good under both attacks; the \
       controller diagnoses the phase signature (ordering-only inflation = \
       leader, pre-ordering inflation = network), steers the knobs through \
       the validated plane, and lands within 25% of the best static arm each \
       time — with a journal that reconciles to the last entry";
    failures = List.rev !failures;
  }

(* The experiment table, in run order. *)
let experiments =
  [
    { id = "E1"; run = e1;
      title = "Configurations: f intrusions, k recovering, 1 site loss" };
    { id = "E2"; run = e2;
      title = "Fault-free wide-area deployment: update latency CDF" };
    { id = "E3"; run = e3;
      title = "Continuous operation (paper: 30 h); latency over time" };
    { id = "E4"; run = e4;
      title = "Leader performance attack: Prime (bounded delay) vs PBFT baseline" };
    { id = "E5"; run = e5;
      title = "Latency during proactive recovery (k = 1 rotation)" };
    { id = "E6"; run = e6;
      title = "Undetected delay attack on primary WAN links: dissemination modes" };
    { id = "E6B"; run = e6b;
      title = "Packet loss on inter-site links: ARQ turns loss into latency" };
    { id = "E7"; run = e7;
      title = "Disconnection of an entire control center, then restoration" };
    { id = "E8"; run = e8; title = "Throughput: substations at 10 polls/s each" };
    { id = "E9"; run = e9;
      title = "Long-running intrusion campaign (ablations A3: diversity, A4: recovery)" };
    { id = "E10"; run = e10;
      title = "Chaos soak: seeded random fault schedules under runtime \
               safety/liveness oracles" };
    { id = "E11"; run = e11;
      title = "Online reconfiguration: control-center failover, site rejoin, and \
               membership growth through the ordered stream" };
    { id = "E12"; run = e12;
      title = "Fleet-scale field layer: register-mapped devices behind \
               hierarchical concentrators" };
    { id = "E13"; run = e13;
      title = "Adaptive resilience: two-level feedback controller vs static \
               configurations under undisclosed attacks" };
  ]

(* EXPERIMENT=E2,E4,E6 — the ids to run (any case), always in table
   order; unset runs them all. An empty list or an unknown id exits 2
   with the valid ids. *)
let selected =
  let ids = List.map (fun e -> e.id) experiments in
  Option.value ~default:ids
    (env_knob "EXPERIMENT"
       ~valid:("a comma-separated list of " ^ String.concat ", " ids)
       (fun s ->
         match
           String.split_on_char ',' s
           |> List.map (fun e -> String.uppercase_ascii (String.trim e))
           |> List.filter (fun e -> e <> "")
         with
         | [] -> None
         | picked when List.for_all (fun id -> List.mem id ids) picked -> Some picked
         | _ -> None))

let () =
  let t0 = Unix.gettimeofday () in
  let rule = String.make 78 '=' in
  let failed = ref false in
  if perf_mode then Perf.run ()
  else
    List.iter
      (fun e ->
        if List.mem e.id selected then begin
          Printf.printf "\n%s\n%s %s — %s\n%s\n%!" rule e.id
            (if scale_full then "[full scale]" else "[quick scale]")
            e.title rule;
          let o = try e.run () with Failure m -> { shape = "aborted"; failures = [ m ] } in
          Printf.printf "  shape: %s\n%!" o.shape;
          List.iter
            (fun msg ->
              failed := true;
              Printf.eprintf "%s FAILED: %s\n%!" e.id msg)
            o.failures
        end)
      experiments;
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  if !failed then exit 1
