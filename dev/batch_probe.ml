(* One-point throughput probe for tuning the E8 batch sweep:
   SUBS=<n> BATCH=<b> DUR_S=<s> dune exec dev/batch_probe.exe *)

let getenv_int =
  Cli.env_int
    ~usage:
      "[SUBS=n] [BATCH=n] [DUR_S=n] [POLL_US=n] [WAN_BPS=n] [LAN_BPS=n] \
       [MODE=flood] batch_probe.exe"

let () =
  let substations = getenv_int "SUBS" 640 in
  let max_batch = getenv_int "BATCH" 1 in
  let dur_s = getenv_int "DUR_S" 15 in
  let poll_interval_us = getenv_int "POLL_US" 100_000 in
  let duration_us = dur_s * 1_000_000 in
  let t0 = Unix.gettimeofday () in
  let wan_bps = getenv_int "WAN_BPS" 0 in
  let lan_bps = getenv_int "LAN_BPS" 0 in
  let tweak c =
    let c =
      if wan_bps > 0 then { c with Spire.System.wan_bandwidth_bps = wan_bps }
      else c
    in
    let c =
      if lan_bps > 0 then { c with Spire.System.lan_bandwidth_bps = lan_bps }
      else c
    in
    match Sys.getenv_opt "MODE" with
    | Some "flood" -> { c with Spire.System.dissemination = Overlay.Net.Flood }
    | _ -> c
  in
  let sys, r =
    Spire.Scenarios.throughput ~tweak ~max_batch ~substations ~poll_interval_us
      ~duration_us ()
  in
  let secs = float_of_int duration_us /. 1e6 in
  let h = r.Spire.Scenarios.hist in
  let pct p =
    if Stats.Histogram.count h > 0 then Stats.Histogram.percentile h p else nan
  in
  let wire =
    (Overlay.Net.stats (Spire.System.net sys)).Overlay.Net.submitted_bytes
  in
  Printf.printf
    "subs=%d batch=%d confirmed/s=%.0f ratio=%.3f p50=%.1f p99=%.1f wire \
     MB=%.1f KB/upd=%.2f wall=%.1fs\n"
    substations max_batch
    (float_of_int r.Spire.Scenarios.confirmed /. secs)
    (float_of_int r.Spire.Scenarios.confirmed
    /. float_of_int (max 1 r.Spire.Scenarios.submitted))
    (pct 50.) (pct 99.)
    (float_of_int wire /. 1e6)
    (float_of_int wire /. 1e3 /. float_of_int (max 1 r.Spire.Scenarios.confirmed))
    (Unix.gettimeofday () -. t0);
  let net = Spire.System.net sys in
  let s = Overlay.Net.stats net in
  Printf.printf
    "  drops: queue_full=%d link_down=%d no_route=%d arq=%d retrans=%d\n"
    s.Overlay.Net.dropped_queue_full s.Overlay.Net.dropped_link_down
    s.Overlay.Net.dropped_no_route s.Overlay.Net.dropped_arq_exhausted
    (Overlay.Net.retransmissions net);
  let reports = Overlay.Net.link_reports net in
  let top =
    List.sort
      (fun (a : Overlay.Net.link_report) b ->
        compare b.Overlay.Net.tx_busy_us a.Overlay.Net.tx_busy_us)
      reports
  in
  List.iteri
    (fun i (lr : Overlay.Net.link_report) ->
      if i < 5 then
        Printf.printf "  link %d->%d util=%.2f MB=%.1f\n" lr.Overlay.Net.link_src
          lr.Overlay.Net.link_dst
          (Overlay.Net.link_utilisation net ~elapsed_us:duration_us lr)
          (float_of_int lr.Overlay.Net.tx_bytes /. 1e6))
    top
