(* Benchmark harness: regenerates every table and figure of the
   reconstructed evaluation (experiments E1..E13, see DESIGN.md and
   EXPERIMENTS.md).

   Usage:
     dune exec bench/main.exe                 # all experiments, quick scale
     EXPERIMENT=E4 dune exec bench/main.exe   # one experiment
     ONLY=E2,E4,E6 dune exec bench/main.exe   # comma-separated subset
     SCALE=full dune exec bench/main.exe      # paper-scale durations
     PERF=1 dune exec bench/main.exe          # wall-clock gates (bench/perf.ml)
     PAR=4 ONLY=E10 dune exec bench/main.exe  # farm instances over 4 domains
     FLEET=1000,10000 ONLY=E12 ...            # E12 fleet-size sweep points
     ADAPT=delay EXPERIMENT=E13 ...           # E13 replayed attack(s)

   Absolute numbers depend on the simulated substrate; the properties
   that must match the paper are the *shapes*: who wins, by what rough
   factor, and where behaviour changes. Each experiment prints the
   shape statement it is checking. *)

(* Shared validated env-knob parsing. A knob that is set but fails to
   parse aborts with exit 2 and prints its valid forms — the same
   contract as the EXPERIMENT=/ONLY= unknown-id check below, so no
   garbage value can silently select a default. *)
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

let positive_int s =
  match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None

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

let wanted =
  match Sys.getenv_opt "EXPERIMENT" with
  | Some e -> Some (String.uppercase_ascii e)
  | None -> None

(* ONLY=E2,E4,E6 — comma-separated experiment subset (composes with
   EXPERIMENT, which selects exactly one). *)
let only =
  match Sys.getenv_opt "ONLY" with
  | None -> None
  | Some s ->
    Some
      (String.split_on_char ',' s
      |> List.filter_map (fun e ->
             match String.trim e with
             | "" -> None
             | e -> Some (String.uppercase_ascii e)))

(* PAR=N — farm the independent scenario instances (E8 sweep points,
   E10 chaos soak seeds) across N OCaml domains via Sim.Parallel.
   Default 1: every instance runs inline, no domains spawned. Output is
   byte-identical for any value — results are collected into
   index-addressed arrays and printed in order after the join. *)
let par_domains =
  Option.value ~default:1
    (env_knob "PAR" ~valid:"a positive integer (e.g. PAR=4)" positive_int)

(* ADAPT=leader|delay|both — which attack(s) experiment E13 replays
   against the adaptive controller (default: both). *)
let adapt_choice =
  Option.value ~default:`Both
    (env_knob "ADAPT" ~valid:"leader | delay | both" (fun s ->
         match String.lowercase_ascii s with
         | "leader" -> Some `Leader
         | "delay" -> Some `Delay
         | "both" -> Some `Both
         | _ -> None))

let sec s = s * 1_000_000
let minutes m = m * 60 * 1_000_000
let hours h = h * 3600 * 1_000_000

let section id title =
  Printf.printf "\n%s\n%s %s — %s\n%s\n%!" (String.make 78 '=') id
    (if scale_full then "[full scale]" else "[quick scale]")
    title (String.make 78 '=')

let shape fmt = Printf.printf ("  shape: " ^^ fmt ^^ "\n%!")

let enabled id =
  (match wanted with None -> true | Some w -> String.equal w id)
  && match only with None -> true | Some ids -> List.mem id ids

let pct hist p = Stats.Histogram.percentile hist p

let latency_row name (r : Spire.Scenarios.latency_result) =
  let h = r.Spire.Scenarios.hist in
  if Stats.Histogram.count h = 0 then [ name; "0"; "-"; "-"; "-"; "-"; "-"; "0" ]
  else
    [
      name;
      string_of_int r.Spire.Scenarios.confirmed;
      Printf.sprintf "%.1f" (Stats.Histogram.mean h);
      Printf.sprintf "%.1f" (pct h 50.);
      Printf.sprintf "%.1f" (pct h 90.);
      Printf.sprintf "%.1f" (pct h 99.);
      Printf.sprintf "%.1f" (Stats.Histogram.max_value h);
      string_of_int r.Spire.Scenarios.max_view;
    ]

let latency_columns =
  [ "scenario"; "confirmed"; "mean ms"; "p50"; "p90"; "p99"; "max"; "views" ]

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

(* ------------------------------------------------------------------ *)
(* E1: configuration table                                              *)

let e1 () =
  section "E1" "Configurations: f intrusions, k recovering, 1 site loss";
  let table =
    Stats.Table.create ~title:"n = 3f + 2k + 1 spread so any site can be lost"
      ~columns:[ "f"; "k"; "sites"; "n"; "quorum"; "distribution"; "site-loss ok" ]
  in
  List.iter
    (fun (c : Spire.Config_calc.configuration) ->
      Stats.Table.add_row table
        [
          string_of_int c.Spire.Config_calc.f;
          string_of_int c.Spire.Config_calc.k;
          string_of_int (List.length c.Spire.Config_calc.sites);
          string_of_int c.Spire.Config_calc.n;
          string_of_int
            (Spire.Config_calc.quorum ~f:c.Spire.Config_calc.f
               ~k:c.Spire.Config_calc.k);
          String.concat "+"
            (List.map
               (fun (kind, size) ->
                 Printf.sprintf "%d%s" size
                   (match kind with
                   | Spire.Config_calc.Control_center -> "cc"
                   | Spire.Config_calc.Data_center -> "dc"))
               c.Spire.Config_calc.sites);
          (if Spire.Config_calc.tolerates_site_loss c then "yes" else "NO");
        ])
    (Spire.Config_calc.standard_table ());
  Stats.Table.print table;
  shape
    "flagship f=1,k=1 over 4 sites needs exactly 6 replicas (2cc+2cc+1dc+1dc)"

(* Per-shard execution summary (E2/E3): how the event load and heap
   pressure spread over the control heap and the site/field heaps. *)
let shard_summary sys =
  let engine = Spire.System.engine sys in
  let k = Sim.Engine.shards engine in
  let fmt get =
    String.concat " "
      (List.init k (fun s ->
           Printf.sprintf "%s=%d"
             (if s = 0 then "ctrl" else Printf.sprintf "s%d" s)
             (get s)))
  in
  Printf.printf "  shard events: %s\n" (fmt (Sim.Engine.processed_of engine));
  Printf.printf "  shard heap hi-water: %s\n"
    (fmt (Sim.Engine.heap_hi_water engine));
  Printf.printf "%!"

(* ------------------------------------------------------------------ *)
(* E2: fault-free wide-area latency distribution                       *)

let e2 () =
  section "E2" "Fault-free wide-area deployment: update latency CDF";
  let duration = if scale_full then hours 1 else minutes 5 in
  let cfg = { (Spire.System.default_config ()) with Spire.System.telemetry = true } in
  let sys, r = Spire.Scenarios.fault_free ~config:cfg ~duration_us:duration () in
  let table = Stats.Table.create ~title:"latency distribution" ~columns:latency_columns in
  Stats.Table.add_row table (latency_row "wide-area fault-free" r);
  Stats.Table.print table;
  let h = r.Spire.Scenarios.hist in
  let cdf_table =
    Stats.Table.create ~title:"CDF (fraction of updates within bound)"
      ~columns:[ "bound ms"; "fraction" ]
  in
  List.iter
    (fun bound ->
      Stats.Table.add_row cdf_table
        [
          Printf.sprintf "%.0f" bound;
          Printf.sprintf "%.5f" (Stats.Histogram.fraction_below h bound);
        ])
    [ 20.; 30.; 50.; 75.; 100.; 150.; 200. ];
  Stats.Table.print cdf_table;
  Printf.printf "  submitted=%d confirmed=%d (%.2f%%)\n" r.Spire.Scenarios.submitted
    r.Spire.Scenarios.confirmed
    (100. *. float_of_int r.Spire.Scenarios.confirmed
    /. float_of_int (max 1 r.Spire.Scenarios.submitted));
  let sink = Spire.System.telemetry sys in
  Telemetry.Attribution.print
    ~title:"latency attribution, fault-free (µs, virtual)" sink;
  Telemetry.Attribution.print_net sink;
  shard_summary sys;
  shape "nearly all updates within 100 ms over the wide area; no view changes"

(* ------------------------------------------------------------------ *)
(* E3: long continuous run                                             *)

let e3 () =
  section "E3" "Continuous operation (paper: 30 h); latency over time";
  let duration = if scale_full then hours 30 else minutes 30 in
  let sys, r = Spire.Scenarios.fault_free ~duration_us:duration () in
  let bucket = duration / 10 in
  let table =
    Stats.Table.create ~title:"per-interval latency (time buckets)"
      ~columns:[ "interval start"; "updates"; "mean ms"; "max ms" ]
  in
  List.iter
    (fun (start, summary) ->
      Stats.Table.add_row table
        [
          Printf.sprintf "%.0f min" (float_of_int start /. 60e6);
          string_of_int (Stats.Summary.count summary);
          Printf.sprintf "%.1f" (Stats.Summary.mean summary);
          Printf.sprintf "%.1f" (Stats.Summary.max_value summary);
        ])
    (Stats.Timeseries.bucketed r.Spire.Scenarios.series ~bucket_us:bucket);
  Stats.Table.print table;
  let h = r.Spire.Scenarios.hist in
  Printf.printf "  overall: n=%d mean=%.1fms p99.9=%.1fms within-200ms=%.5f\n"
    (Stats.Histogram.count h) (Stats.Histogram.mean h) (pct h 99.9)
    (Stats.Histogram.fraction_below h 200.);
  shard_summary sys;
  shape "flat latency profile over the whole run: no drift, no outage"

(* ------------------------------------------------------------------ *)
(* E4: leader slowdown attack, Prime vs PBFT                            *)

let e4 () =
  section "E4"
    "Leader performance attack: Prime (bounded delay) vs PBFT baseline";
  let duration = if scale_full then minutes 5 else sec 30 in
  let attack_from = duration / 6 in
  let table =
    Stats.Table.create
      ~title:"latency under a leader that delays proposals (attack from t/6)"
      ~columns:latency_columns
  in
  let post_attack_mean = Hashtbl.create 7 in
  let ordering_mean = Hashtbl.create 7 in
  let attributions = ref [] in
  List.iter
    (fun (name, protocol, delay_us) ->
      let sys, r =
        Spire.Scenarios.leader_attack
          ~tweak:(fun c -> { c with Spire.System.telemetry = true })
          ~protocol ~delay_us ~attack_from_us:attack_from ~duration_us:duration
          ()
      in
      Stats.Table.add_row table (latency_row name r);
      let sink = Spire.System.telemetry sys in
      let attr = Telemetry.Attribution.build sink in
      attributions := (name, sink) :: !attributions;
      List.iter
        (fun (row : Telemetry.Attribution.row) ->
          if row.Telemetry.Attribution.phase = Telemetry.Span.Ordering then
            Hashtbl.replace ordering_mean name row.Telemetry.Attribution.mean_us)
        attr.Telemetry.Attribution.rows;
      (* Post-attack steady-state mean (skip the transition bucket). *)
      let post =
        Stats.Timeseries.bucketed r.Spire.Scenarios.series
          ~bucket_us:(duration / 10)
        |> List.filter (fun (start, _) -> start > attack_from + (duration / 10))
        |> List.map snd
        |> List.fold_left Stats.Summary.merge (Stats.Summary.create ())
      in
      Hashtbl.replace post_attack_mean name (Stats.Summary.mean post))
    [
      ("prime, no attack", Spire.System.Prime_protocol, 0);
      ("prime, 500ms delay", Spire.System.Prime_protocol, 500_000);
      ("prime, 1s delay", Spire.System.Prime_protocol, 1_000_000);
      ("pbft, no attack", Spire.System.Pbft_protocol, 0);
      ("pbft, 500ms delay", Spire.System.Pbft_protocol, 500_000);
      ("pbft, 1s delay", Spire.System.Pbft_protocol, 1_000_000);
    ];
  Stats.Table.print table;
  (* Where does the injected delay land? Per-phase attribution, one
     table per scenario: under PBFT the whole second shows up in the
     ordering phase; Prime rotates the leader so ordering stays near
     baseline after the view change. *)
  List.iter
    (fun (name, sink) ->
      Telemetry.Attribution.print
        ~title:(Printf.sprintf "attribution — %s (µs, virtual)" name)
        sink)
    (List.rev !attributions);
  let get name = try Hashtbl.find post_attack_mean name with Not_found -> nan in
  let om name = try Hashtbl.find ordering_mean name with Not_found -> nan in
  Printf.printf
    "  post-attack steady-state mean: prime %.1fms vs pbft %.1fms (1s delay)\n"
    (get "prime, 1s delay") (get "pbft, 1s delay");
  Printf.printf
    "  ordering-phase mean (1s delay): prime %.0fµs vs pbft %.0fµs — the \
     attack's delay lands in the ordering phase under PBFT\n"
    (om "prime, 1s delay") (om "pbft, 1s delay");
  shape
    "Prime suspects and rotates the slow leader (views > 0), returning to \
     baseline latency; PBFT keeps it (views = 0) and every update pays the \
     injected delay"

(* ------------------------------------------------------------------ *)
(* E5: proactive recovery                                              *)

let e5 () =
  section "E5" "Latency during proactive recovery (k = 1 rotation)";
  let duration = if scale_full then hours 1 else minutes 10 in
  let rotation = duration / 4 in
  let _, r, events =
    Spire.Scenarios.proactive_recovery ~rotation_period_us:rotation
      ~recovery_duration_us:(sec 10) ~duration_us:duration ()
  in
  let table = Stats.Table.create ~title:"latency with recoveries" ~columns:latency_columns in
  Stats.Table.add_row table (latency_row "prime + proactive recovery" r);
  Stats.Table.print table;
  let begins =
    List.filter (fun (_, phase, _) -> phase = `Begin) events |> List.length
  in
  let completes =
    List.filter (fun (_, phase, _) -> phase = `Complete) events |> List.length
  in
  Printf.printf "  recoveries: %d begun, %d completed; confirmed %d/%d\n" begins
    completes r.Spire.Scenarios.confirmed r.Spire.Scenarios.submitted;
  shape
    "service continues through every rejuvenation; latency blips stay \
     bounded because n - k still holds a quorum"

(* ------------------------------------------------------------------ *)
(* E6: network delay attack vs dissemination mode (ablation A1)        *)

let e6 () =
  section "E6"
    "Undetected delay attack on primary WAN links: dissemination modes";
  let duration = if scale_full then minutes 2 else sec 20 in
  let table =
    Stats.Table.create
      ~title:"latency with primary inter-site links delayed 20x from t/4"
      ~columns:latency_columns
  in
  let bytes_table =
    Stats.Table.create
      ~title:"wire bytes per dissemination mode (redundancy's bandwidth price)"
      ~columns:[ "mode"; "submitted MB"; "delivered MB"; "dropped MB"; "link tx MB" ]
  in
  let attributions = ref [] in
  List.iter
    (fun (name, mode) ->
      let sys, r =
        Spire.Scenarios.link_degradation
          ~tweak:(fun c -> { c with Spire.System.telemetry = true })
          ~mode ~factor:20. ~attack_from_us:(duration / 4)
          ~duration_us:duration ()
      in
      Stats.Table.add_row table (latency_row name r);
      attributions := (name, Spire.System.telemetry sys) :: !attributions;
      let net = Spire.System.net sys in
      let s = Overlay.Net.stats net in
      let link_tx =
        List.fold_left
          (fun acc lr -> acc + lr.Overlay.Net.tx_bytes)
          0 (Overlay.Net.link_reports net)
      in
      let mb b = Printf.sprintf "%.2f" (float_of_int b /. 1e6) in
      Stats.Table.add_row bytes_table
        [
          name;
          mb s.Overlay.Net.submitted_bytes;
          mb s.Overlay.Net.delivered_bytes;
          mb s.Overlay.Net.dropped_bytes;
          mb link_tx;
        ])
    [
      ("single shortest path (ablation)", Overlay.Net.Shortest);
      ("redundant 2 disjoint paths", Overlay.Net.Redundant 2);
      ("constrained flooding", Overlay.Net.Flood);
    ];
  Stats.Table.print table;
  Stats.Table.print bytes_table;
  (* Where is the link delay absorbed? Under single-path routing every
     lifecycle phase that crosses the attacked WAN links inflates (the
     per-hop net tables show the propagation delay directly); with
     redundant/flooding dissemination the first clean copy wins and the
     lifecycle attribution stays near the fault-free baseline. *)
  List.iter
    (fun (name, sink) ->
      Telemetry.Attribution.print
        ~title:(Printf.sprintf "attribution — %s (µs, virtual)" name)
        sink;
      Telemetry.Attribution.print_net
        ~title:(Printf.sprintf "per-hop net spans — %s (µs, virtual)" name)
        sink)
    (List.rev !attributions);
  shape
    "single-path routing keeps trusting the attacked links and suffers the \
     full delay; redundant/flooding dissemination delivers the first clean \
     copy, keeping latency near baseline — and pays for it in wire bytes"

(* ------------------------------------------------------------------ *)
(* E6b: packet loss on WAN links (hop-by-hop recovery)                 *)

let e6b () =
  section "E6B" "Packet loss on inter-site links: ARQ turns loss into latency";
  let duration = if scale_full then minutes 2 else sec 20 in
  let table =
    Stats.Table.create ~title:"latency under sustained WAN packet loss"
      ~columns:
        ([ "loss"; "mode" ] @ List.tl latency_columns)
  in
  List.iter
    (fun loss ->
      List.iter
        (fun (name, mode) ->
          let sys, r = Spire.Scenarios.packet_loss ~mode ~loss ~duration_us:duration () in
          let row = latency_row name r in
          Stats.Table.add_row table
            (Printf.sprintf "%.0f%%" (loss *. 100.) :: name :: List.tl row);
          ignore (Overlay.Net.retransmissions (Spire.System.net sys) : int))
        [ ("shortest", Overlay.Net.Shortest); ("flood", Overlay.Net.Flood) ])
    [ 0.05; 0.2; 0.4 ];
  Stats.Table.print table;
  shape
    "moderate loss costs only tail latency (per-hop retransmission); heavy \
     loss favours flooding, which needs only one clean copy on any path"

(* ------------------------------------------------------------------ *)
(* E7: loss of a control center                                        *)

let e7 () =
  section "E7" "Disconnection of an entire control center, then restoration";
  let duration = if scale_full then minutes 4 else sec 40 in
  let fail_at = duration / 4 in
  let restore_at = duration * 5 / 8 in
  let _, r =
    Spire.Scenarios.site_failure ~site:0 ~fail_at_us:fail_at
      ~restore_at_us:(Some restore_at) ~duration_us:duration ()
  in
  let bucket = duration / 20 in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf "timeline (site 0 killed at %ds, restored at %ds)"
           (fail_at / 1_000_000) (restore_at / 1_000_000))
      ~columns:[ "interval"; "confirmations"; "mean ms"; "max ms" ]
  in
  List.iter
    (fun (start, summary) ->
      Stats.Table.add_row table
        [
          Printf.sprintf "%2ds" (start / 1_000_000);
          string_of_int (Stats.Summary.count summary);
          Printf.sprintf "%.1f" (Stats.Summary.mean summary);
          Printf.sprintf "%.1f" (Stats.Summary.max_value summary);
        ])
    (Stats.Timeseries.bucketed r.Spire.Scenarios.series ~bucket_us:bucket);
  Stats.Table.print table;
  emit_timeline ~experiment:"E7" r.Spire.Scenarios.series;
  Printf.printf "  confirmed %d/%d; views reached %d\n" r.Spire.Scenarios.confirmed
    r.Spire.Scenarios.submitted r.Spire.Scenarios.max_view;
  shape
    "a ~1-2s failover (leader rotation past the dead site), then full \
     service from the remaining sites; reconnection is seamless"

(* ------------------------------------------------------------------ *)
(* E8: throughput scaling                                              *)

let e8 () =
  section "E8" "Throughput: substations at 10 polls/s each";
  let duration = if scale_full then minutes 1 else sec 15 in
  let table =
    Stats.Table.create ~title:"offered vs confirmed rate"
      ~columns:
        [
          "substations"; "offered/s"; "confirmed/s"; "ratio"; "p99 ms";
          "wire MB"; "ok";
        ]
  in
  let breaking_point = ref None in
  let traffic_sample = ref None in
  let points =
    if scale_full then [| 10; 20; 40; 80; 160; 320; 640; 1280 |]
    else [| 10; 20; 40; 80; 160; 320; 640 |]
  in
  (* Every sweep point builds its own system — independent instances,
     farmed across PAR= domains; rows are added in index order after
     the join, so the table is identical for any domain count. *)
  let results =
    Sim.Parallel.map ~domains:par_domains
      (fun substations ->
        let sys, r =
          Spire.Scenarios.throughput ~substations ~poll_interval_us:100_000
            ~duration_us:duration ()
        in
        let secs = float_of_int duration /. 1e6 in
        let offered = float_of_int substations *. 10. in
        let confirmed_rate = float_of_int r.Spire.Scenarios.confirmed /. secs in
        let p99 =
          if Stats.Histogram.count r.Spire.Scenarios.hist > 0 then
            pct r.Spire.Scenarios.hist 99.
          else nan
        in
        let wire_bytes =
          (Overlay.Net.stats (Spire.System.net sys)).Overlay.Net.submitted_bytes
        in
        let traffic =
          if substations = 40 then Some (Spire.System.wire_traffic sys)
          else None
        in
        (substations, offered, confirmed_rate, p99, wire_bytes, traffic))
      points
  in
  Array.iter
    (fun (substations, offered, confirmed_rate, p99, wire_bytes, traffic) ->
      (match traffic with Some t -> traffic_sample := Some t | None -> ());
      let ratio = confirmed_rate /. offered in
      let ok = ratio > 0.97 && p99 < 500. in
      if (not ok) && !breaking_point = None then breaking_point := Some substations;
      Stats.Table.add_row table
        [
          string_of_int substations;
          Printf.sprintf "%.0f" offered;
          Printf.sprintf "%.0f" confirmed_rate;
          Printf.sprintf "%.3f" ratio;
          Printf.sprintf "%.1f" p99;
          Printf.sprintf "%.2f" (float_of_int wire_bytes /. 1e6);
          (if ok then "yes" else "SATURATED");
        ])
    results;
  Stats.Table.print table;
  (* Per-message-class wire ledger (40-substation point): encoded frame
     sizes, not approximations — summary-matrix pre-prepares must dwarf
     the one-digest votes. *)
  (match !traffic_sample with
  | None -> ()
  | Some traffic ->
    let class_table =
      Stats.Table.create
        ~title:"per-class wire traffic at 40 substations (exact encoded sizes)"
        ~columns:[ "message class"; "frames"; "bytes"; "avg frame B" ]
    in
    List.iter
      (fun (kind, frames, bytes) ->
        Stats.Table.add_row class_table
          [
            kind;
            string_of_int frames;
            string_of_int bytes;
            string_of_int (bytes / max 1 frames);
          ])
      traffic;
    Stats.Table.print class_table);
  (match !breaking_point with
  | Some s -> Printf.printf "  saturation first observed at %d substations\n" s
  | None -> Printf.printf "  no saturation within the sweep\n");
  (* Batch-size sweep: constrained-flooding dissemination (the paper's
     network-attack-resilient mode) at a per-endpoint rate that
     saturates the unbatched pipeline. Under flooding every frame
     crosses every overlay link, so the per-update flooding cost gates
     the confirmed rate directly — and batching amortises it: one
     envelope + one RSA authenticator per client batch, one po-request
     frame per pre-order block, one reply frame per destination group.
     The price is the batch-wait the deadline policy permits. *)
  let sweep_duration = if scale_full then sec 15 else sec 5 in
  let sweep_substations = 16 in
  let sweep_poll_us = 1_000 in
  let batch_table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "batch-size sweep, flooding: %d substations at %d polls/s \
            (offered %d/s, deadline 10 ms)"
           sweep_substations (1_000_000 / sweep_poll_us)
           (sweep_substations * 1_000_000 / sweep_poll_us))
      ~columns:
        [
          "max_batch"; "confirmed/s"; "p50 ms"; "p99 ms"; "wire MB";
          "wire KB/upd";
        ]
  in
  let batch_results =
    Sim.Parallel.map ~domains:par_domains
      (fun max_batch ->
        let sys, r =
          Spire.Scenarios.throughput
            ~tweak:(fun c ->
              { c with Spire.System.dissemination = Overlay.Net.Flood })
            ~max_batch ~substations:sweep_substations
            ~poll_interval_us:sweep_poll_us ~duration_us:sweep_duration ()
        in
        let secs = float_of_int sweep_duration /. 1e6 in
        let confirmed_rate = float_of_int r.Spire.Scenarios.confirmed /. secs in
        let h = r.Spire.Scenarios.hist in
        let wire_bytes =
          (Overlay.Net.stats (Spire.System.net sys)).Overlay.Net.submitted_bytes
        in
        ( max_batch,
          confirmed_rate,
          (if Stats.Histogram.count h > 0 then pct h 50. else nan),
          (if Stats.Histogram.count h > 0 then pct h 99. else nan),
          wire_bytes,
          r.Spire.Scenarios.confirmed ))
      [| 1; 4; 16; 64 |]
  in
  (* The speedup column is relative to the batch=1 point, which is
     always index 0 of the collected array. *)
  let base_rate =
    match batch_results with
    | [||] -> nan
    | a ->
      let _, rate, _, _, _, _ = a.(0) in
      rate
  in
  Array.iter
    (fun (max_batch, confirmed_rate, p50, p99, wire_bytes, confirmed) ->
      Stats.Table.add_row batch_table
        [
          string_of_int max_batch;
          Printf.sprintf "%.0f (%.2fx)" confirmed_rate (confirmed_rate /. base_rate);
          Printf.sprintf "%.1f" p50;
          Printf.sprintf "%.1f" p99;
          Printf.sprintf "%.2f" (float_of_int wire_bytes /. 1e6);
          Printf.sprintf "%.2f"
            (float_of_int wire_bytes /. 1e3 /. float_of_int (max 1 confirmed));
        ])
    batch_results;
  Stats.Table.print batch_table;
  shape
    "latency stays flat well past the paper's 10-substation deployment; \
     saturation appears only at 1-2 orders of magnitude more load; \
     summary-matrix pre-prepare frames are several times heavier than \
     single-digest votes; under flooding at a saturating load, batching \
     >= 8 at least doubles the confirmed rate at no worse than twice the \
     p99, because the per-update flooding cost is what gates throughput"

(* ------------------------------------------------------------------ *)
(* E9: intrusion campaign with diversity + proactive recovery           *)

let e9 () =
  section "E9"
    "Long-running intrusion campaign (ablations A3: diversity, A4: recovery)";
  let duration = if scale_full then hours 48 else hours 12 in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "attacker develops one exploit per 2 h; rotation every 1 h; run = %d virtual hours"
           (duration / 3_600_000_000))
      ~columns:
        [
          "configuration";
          "max simultaneous";
          "total compromises";
          "exploits";
          "time above f";
          "mean hold";
          "compromised at end";
          "f exceeded?";
        ]
  in
  List.iter
    (fun (name, diversity_on, recovery_on, reactive_on) ->
      let _, c =
        Spire.Scenarios.intrusion_campaign ~reactive_on ~diversity_on
          ~recovery_on ~duration_us:duration ()
      in
      Stats.Table.add_row table
        [
          name;
          string_of_int c.Spire.Scenarios.max_simultaneous_compromised;
          string_of_int c.Spire.Scenarios.total_compromises;
          string_of_int c.Spire.Scenarios.exploits_developed;
          Printf.sprintf "%ds" (c.Spire.Scenarios.time_above_f_us / 1_000_000);
          Printf.sprintf "%ds" (c.Spire.Scenarios.mean_held_us / 1_000_000);
          string_of_int c.Spire.Scenarios.final_compromised;
          (if c.Spire.Scenarios.max_simultaneous_compromised > 1 then "YES"
           else "no");
        ])
    [
      ("diversity + recovery (Spire)", true, true, false);
      ("  + reactive recovery (extension)", true, true, true);
      ("diversity only (A4: no recovery)", true, false, false);
      ("recovery only (A3: no diversity)", false, true, false);
      ("neither (undefended)", false, false, false);
    ];
  Stats.Table.print table;
  shape
    "with both defences the attacker never holds more than f=1 replicas; \
     removing either lets compromises accumulate past f"

(* ------------------------------------------------------------------ *)
(* E10: chaos soak — random fault schedules vs the runtime oracles      *)

let e10 () =
  section "E10"
    "Chaos soak: seeded random fault schedules under runtime safety/liveness \
     oracles";
  let seeds = if scale_full then 50 else 12 in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "%d seeded within-budget schedules (<= f Byzantine, <= k down, \
            quorum preserved); every oracle must stay green"
           seeds)
      ~columns:
        [
          "seed";
          "faults";
          "confirmed";
          "min avail";
          "worst ms";
          "baseline p50";
          "post p50";
          "result";
        ]
  in
  let dirty = ref 0 in
  (* Soak seeds are independent instances: PAR=N farms them across
     domains (Chaos.Harness.soak_many); reports come back in seed order
     so the table and dirty-report output never change with PAR. *)
  let seed_list = List.init seeds (fun i -> Int64.of_int (((i + 1) * 104_729) + 7)) in
  let reports =
    Chaos.Harness.soak_many ~domains:par_domains ~seeds:seed_list ()
  in
  List.iter2
    (fun seed r ->
      if not (Chaos.Harness.clean r) then begin
        incr dirty;
        Format.printf "%a@." Chaos.Harness.pp_report r
      end;
      Stats.Table.add_row table
        [
          Int64.to_string seed;
          string_of_int (List.length r.Chaos.Harness.schedule.Chaos.Schedule.events);
          string_of_int r.Chaos.Harness.confirmed;
          string_of_int r.Chaos.Harness.min_available;
          Printf.sprintf "%.0f" r.Chaos.Harness.worst_latency_ms;
          Printf.sprintf "%.1f" r.Chaos.Harness.baseline_p50_ms;
          Printf.sprintf "%.1f" r.Chaos.Harness.post_p50_ms;
          (if Chaos.Harness.clean r then "CLEAN"
           else
             String.concat ","
               (List.map fst (Chaos.Harness.failures r)));
        ])
    seed_list reports;
  Stats.Table.print table;
  (* Non-vacuousness: an over-budget schedule (f + k + 1 simultaneous
     crashes) must both fail validation and trip the quorum watchdog
     when forced through anyway. *)
  let over =
    Chaos.Schedule.
      {
        horizon_us = 3_000_000;
        events =
          [
            {
              at_us = 200_000;
              fault = Crash_restart { replica = 0; down_us = 2_000_000 };
            };
            {
              at_us = 200_000;
              fault = Crash_restart { replica = 2; down_us = 2_000_000 };
            };
            {
              at_us = 200_000;
              fault = Crash_restart { replica = 4; down_us = 2_000_000 };
            };
          ];
      }
  in
  let sys = Spire.System.create (Spire.System.default_config ()) in
  let profile = Chaos.Injector.profile_of_system sys in
  let budget = Chaos.Schedule.budget_of_quorum profile.Chaos.Schedule.quorum in
  (match Chaos.Schedule.validate ~profile ~budget over with
  | Ok () -> Printf.printf "  over-budget schedule WRONGLY validated\n"
  | Error m -> Printf.printf "  validator rejects over-budget schedule: %s\n" m);
  let r = Chaos.Harness.run ~seed:424_242L ~schedule:over () in
  List.iter
    (fun (name, v) ->
      Format.printf "  forced anyway: %-10s %a@." name Oracle.Verdict.pp v)
    r.Chaos.Harness.verdicts;
  shape
    "%d/%d within-budget schedules clean; failing seeds reproduce the exact \
     run; 3 simultaneous crashes drop availability below the 2f+k+1 quorum \
     and the watchdog latches"
    (seeds - !dirty) seeds

(* ------------------------------------------------------------------ *)
(* E11: online reconfiguration                                         *)

let e11 () =
  section "E11"
    "Online reconfiguration: control-center failover, site rejoin, and \
     membership growth through the ordered stream";
  let duration = if scale_full then minutes 2 else sec 50 in
  let _sys, r = Spire.Scenarios.reconfiguration ~duration_us:duration () in
  let table =
    Stats.Table.create
      ~title:
        "timeline: site 0 killed t=10s; failover (epoch 1, n=4) t=14s; \
         hardware healed t=22s; rejoin (epoch 2, n=6) t=26s; standby \
         data center admitted (epoch 3, n=8, k=2) t=38s"
      ~columns:[ "epoch"; "boundary exec"; "cutover t" ]
  in
  List.iter
    (fun (e, boundary, time_us) ->
      Stats.Table.add_row table
        [
          string_of_int e;
          string_of_int boundary;
          Printf.sprintf "%.1fs" (float_of_int time_us /. 1e6);
        ])
    r.Spire.Scenarios.cutovers;
  Stats.Table.print table;
  emit_timeline ~experiment:"E11" r.Spire.Scenarios.base.Spire.Scenarios.series;
  (* Replay the sampled per-epoch activity through the epoch-safety
     oracle: at most one epoch quorate at any sampled instant, unique
     certificate chain, no latched deployment violation. *)
  let check = Oracle.Epoch_check.create () in
  List.iter
    (fun (s : Spire.Scenarios.activity_sample) ->
      Oracle.Epoch_check.observe_activity check ~time_us:s.Spire.Scenarios.at_us
        ~live:(List.map (fun (e, live, _) -> (e, live)) s.Spire.Scenarios.per_epoch)
        ~quorum_of:(fun e ->
          match
            List.find_opt
              (fun (e', _, _) -> e' = e)
              s.Spire.Scenarios.per_epoch
          with
          | Some (_, _, q) -> q
          | None -> max_int))
    r.Spire.Scenarios.activity;
  (match r.Spire.Scenarios.violation with
  | Some v -> Oracle.Epoch_check.note_violation check v
  | None -> ());
  let verdict = Oracle.Epoch_check.verdict check in
  Printf.printf
    "  final epoch %d, n=%d; confirmed %d/%d; stale cross-epoch frames %d\n"
    r.Spire.Scenarios.final_epoch r.Spire.Scenarios.final_n
    r.Spire.Scenarios.base.Spire.Scenarios.confirmed
    r.Spire.Scenarios.base.Spire.Scenarios.submitted r.Spire.Scenarios.stale_frames;
  Format.printf "  epoch-safety oracle: %a (%d samples)@." Oracle.Verdict.pp
    verdict
    (Oracle.Epoch_check.observations check);
  Printf.printf "  max confirmation gap after first fault: %.2fs\n"
    (float_of_int r.Spire.Scenarios.max_confirm_gap_us /. 1e6);
  if
    (not (Oracle.Verdict.is_pass verdict))
    || r.Spire.Scenarios.final_epoch <> 3
    || r.Spire.Scenarios.max_confirm_gap_us > 8_000_000
  then begin
    Printf.eprintf "E11 FAILED: oracle or timeline expectations violated\n";
    exit 1
  end;
  shape
    "three cutovers at deterministic boundaries; downtime bounded by the \
     failover window; zero safety violations while n shrinks to 4 and \
     grows to 8"

(* ------------------------------------------------------------------ *)
(* E12: fleet-scale field layer                                        *)

(* FLEET=1000,10000 — comma-separated fleet sizes for the E12 sweep
   (default 1k/10k/100k devices). *)
let fleet_points =
  Option.value
    ~default:[| 1_000; 10_000; 100_000 |]
    (env_knob "FLEET"
       ~valid:
         "a comma-separated list of positive device counts (e.g. \
          FLEET=1000,10000)" (fun s ->
         let parsed =
           String.split_on_char ',' s
           |> List.filter_map (fun e ->
                  match String.trim e with "" -> None | e -> Some e)
           |> List.map positive_int
         in
         if parsed = [] || List.exists Option.is_none parsed then None
         else Some (Array.of_list (List.map Option.get parsed))))

(* Concentrator count grows with the fleet but is capped: hierarchical
   aggregation means the ordered stream sees concentrators, not
   devices. *)
let fleet_concentrators devices = min 64 (max 4 (devices / 2500))

(* Quick-scale floor on the 10,000-device point's confirmed events per
   virtual second: half the rate first recorded for it, 18,179. The
   point is large enough to exercise the aggregation path, and the
   rate is virtual-time, so the floor does not depend on the host. *)
let e12_floor_10k_events_per_sec = 9_090.

let e12 () =
  section "E12"
    "Fleet-scale field layer: register-mapped devices behind hierarchical \
     concentrators";
  let duration = if scale_full then sec 30 else sec 10 in
  let secs = float_of_int duration /. 1e6 in
  let table =
    Stats.Table.create
      ~title:
        (Printf.sprintf
           "fleet sweep, %.0fs runs: report-by-exception events fold into one \
            ordered aggregate per concentrator scan round"
           secs)
      ~columns:
        [
          "devices"; "conc"; "rounds"; "conf events/s"; "conf writes";
          "wire B/dev"; "link churn"; "dups"; "ordered/s";
        ]
  in
  (* Output is byte-identical for any PAR= value: results land in an
     index-addressed array and print in order after the join. *)
  let results =
    Sim.Parallel.map ~domains:par_domains
      (fun devices ->
        let concentrators = fleet_concentrators devices in
        let sys, r =
          Spire.Scenarios.fleet ~concentrators ~devices ~duration_us:duration
            ()
        in
        let s = Spire.System.fleet_stats sys in
        let field_bytes =
          List.fold_left
            (fun acc (kind, _, bytes) ->
              if kind = "field/advert" || kind = "field/report" then
                acc + bytes
              else acc)
            0 (Spire.System.wire_traffic sys)
        in
        (devices, concentrators, s, field_bytes, r))
      fleet_points
  in
  Array.iter
    (fun ( devices,
           concentrators,
           (s : Field.Concentrator.stats),
           field_bytes,
           (r : Spire.Scenarios.latency_result) ) ->
      Stats.Table.add_row table
        [
          string_of_int devices;
          string_of_int concentrators;
          string_of_int s.Field.Concentrator.rounds;
          Printf.sprintf "%.0f" (float_of_int s.confirmed_events /. secs);
          string_of_int s.confirmed_writes;
          Printf.sprintf "%.1f"
            (float_of_int field_bytes /. float_of_int devices);
          string_of_int s.churn;
          string_of_int s.dups_dropped;
          Printf.sprintf "%.0f" (float_of_int r.Spire.Scenarios.confirmed /. secs);
        ])
    results;
  Stats.Table.print table;
  Array.iter
    (fun (devices, _, (s : Field.Concentrator.stats), _, _) ->
      if s.Field.Concentrator.confirmed_events = 0 then begin
        Printf.eprintf "E12 FAILED: no confirmed fleet events at %d devices\n"
          devices;
        exit 1
      end;
      let rate = float_of_int s.confirmed_events /. secs in
      if (not scale_full) && devices = 10_000
         && rate < e12_floor_10k_events_per_sec
      then begin
        Printf.eprintf
          "E12 FAILED: 10k-device point %.0f conf events/s below floor %.0f\n"
          rate e12_floor_10k_events_per_sec;
        exit 1
      end)
    results;
  shape
    "confirmed-event rate scales with fleet size while the ordered-op rate \
     stays near-flat (hierarchical aggregation); per-device wire bytes stay \
     O(1); link churn tracks the keep-alive loss rate"

(* ------------------------------------------------------------------ *)
(* E13: adaptive resilience — two-level controller vs static configs   *)

let e13 () =
  section "E13"
    "Adaptive resilience: two-level feedback controller vs static \
     configurations under undisclosed attacks";
  let duration = if scale_full then minutes 4 else sec 40 in
  let attack_from = duration / 4 in
  (* Converged window: every arm's steady-state p99 is measured from
     the same point, far enough past the attack for the controller's
     detection windows, escalation cooldowns, and the last straggler
     confirmations routed before a mode switch to have drained. Static
     arms are constant, so the window choice only strips their own
     transition bucket — the comparison stays fair. *)
  let converged_from = attack_from + (duration / 4) in
  let attacks =
    List.filter
      (fun (_, _, sel) -> adapt_choice = `Both || adapt_choice = sel)
      [
        ( "leader slowdown 1s (the E4 attack)",
          Spire.Scenarios.Leader_slowdown 1_000_000,
          `Leader );
        ("primary-WAN delay 20x (the E6 attack)", Spire.Scenarios.Wan_delay 20., `Delay);
      ]
  in
  let statics =
    [
      ("static shortest", Overlay.Net.Shortest);
      ("static k-disjoint(2)", Overlay.Net.Redundant 2);
      ("static flooding", Overlay.Net.Flood);
    ]
  in
  let failed = ref false in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failed := true;
        Printf.eprintf "E13 FAILED: %s\n" m)
      fmt
  in
  (* worst-over-attacks converged p99 per arm, for the cross-attack
     comparison: a static configuration must be chosen without knowing
     the attack, so its figure of merit is its worst case. *)
  let worst_of = Hashtbl.create 7 in
  let note_worst name p99 =
    let prev = try Hashtbl.find worst_of name with Not_found -> 0. in
    Hashtbl.replace worst_of name (Float.max prev p99)
  in
  List.iter
    (fun (attack_name, attack, _) ->
      let table =
        Stats.Table.create
          ~title:
            (Printf.sprintf "%s from t=%ds; converged window from t=%ds"
               attack_name (attack_from / 1_000_000)
               (converged_from / 1_000_000))
          ~columns:
            [
              "arm"; "confirmed"; "post p99 ms"; "conv p99 ms"; "views";
              "knobs ok/rej"; "journal";
            ]
      in
      let run_arm name ~controller ~mode =
        let _, r =
          Spire.Scenarios.adaptive ~controller ~mode ~attack
            ~attack_from_us:attack_from ~duration_us:duration ()
        in
        let conv =
          Spire.Scenarios.post_attack_p99
            r.Spire.Scenarios.base.Spire.Scenarios.series
            ~from_us:converged_from
        in
        Stats.Table.add_row table
          [
            name;
            string_of_int r.Spire.Scenarios.base.Spire.Scenarios.confirmed;
            Printf.sprintf "%.1f" r.Spire.Scenarios.post_attack_p99_ms;
            Printf.sprintf "%.1f" conv;
            string_of_int r.Spire.Scenarios.base.Spire.Scenarios.max_view;
            Printf.sprintf "%d/%d" r.Spire.Scenarios.knob_applied
              r.Spire.Scenarios.knob_rejected;
            (if r.Spire.Scenarios.journal_consistent then "reconciles"
             else "INCONSISTENT");
          ];
        note_worst name conv;
        (* The knob oracle holds in every arm: the journal reconciles
           with the counters, and an arm without the controller never
           touches a knob at all. *)
        if not r.Spire.Scenarios.journal_consistent then
          fail "%s under %s: knob journal does not reconcile" name attack_name;
        if
          (not controller)
          && r.Spire.Scenarios.knob_applied + r.Spire.Scenarios.knob_rejected
             <> 0
        then fail "%s under %s: knob requests without a controller" name attack_name;
        (r, conv)
      in
      let static_p99s =
        List.map
          (fun (name, mode) -> snd (run_arm name ~controller:false ~mode))
          statics
      in
      let adaptive_r, adaptive_p99 =
        run_arm "adaptive (controller)" ~controller:true
          ~mode:Overlay.Net.Shortest
      in
      Stats.Table.print table;
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
      if
        adaptive_r.Spire.Scenarios.knob_applied
        + adaptive_r.Spire.Scenarios.knob_rejected
        = 0
      then fail "controller issued no knob requests under %s" attack_name)
    attacks;
  (* Cross-attack comparison (needs both attacks): the controller's
     worst case must beat the worst static configuration's worst case —
     that is the whole point of adapting instead of picking one mode. *)
  if adapt_choice = `Both then begin
    let worst name = try Hashtbl.find worst_of name with Not_found -> 0. in
    let static_worsts = List.map (fun (name, _) -> worst name) statics in
    let worst_static = List.fold_left Float.max 0. static_worsts in
    let adaptive_worst = worst "adaptive (controller)" in
    Printf.printf
      "  worst case over both attacks: adaptive %.1fms vs worst static \
       %.1fms\n"
      adaptive_worst worst_static;
    if adaptive_worst >= worst_static then
      fail
        "adaptive worst case %.1fms does not beat the worst static \
         configuration's %.1fms"
        adaptive_worst worst_static
  end;
  if !failed then exit 1;
  shape
    "no single static configuration is good under both attacks; the \
     controller diagnoses the phase signature (ordering-only inflation = \
     leader, pre-ordering inflation = network), steers the knobs through \
     the validated plane, and lands within 25%% of the best static arm \
     each time — with a journal that reconciles to the last entry"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E6B", e6b); ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10);
    ("E11", e11); ("E12", e12); ("E13", e13);
  ]

(* Every selectable id. An unknown EXPERIMENT=/ONLY= value used to
   silently run zero experiments; now it aborts with the valid list. *)
let known_ids = List.map fst experiments

let () =
  let unknown =
    (match wanted with
    | Some w when not (List.mem w known_ids) -> [ w ]
    | _ -> [])
    @
    match only with
    | Some ids -> List.filter (fun id -> not (List.mem id known_ids)) ids
    | None -> []
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment id%s: %s\nvalid ids: %s\n"
      (if List.length unknown > 1 then "s" else "")
      (String.concat ", " unknown)
      (String.concat ", " known_ids);
    exit 2
  end

let () =
  let t0 = Unix.gettimeofday () in
  if perf_mode then Perf.run ()
  else List.iter (fun (id, f) -> if enabled id then f ()) experiments;
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0)
