(* Quick eyeball probe for the device-fleet path (E12): run a small
   fleet, print the roll-up stats and the wire ledger. Knobs:
   DEVICES (default 1000), CONC (default 4), DUR_S (default 10). *)

let env_int = Cli.env_int ~usage:"[DEVICES=n] [CONC=n] [DUR_S=n] fleet_probe.exe"

let () =
  let devices = env_int "DEVICES" 1000 in
  let concentrators = env_int "CONC" 4 in
  let duration_us = env_int "DUR_S" 10 * 1_000_000 in
  let sys, res = Spire.Scenarios.fleet ~concentrators ~devices ~duration_us () in
  Printf.printf "confirmed=%d submitted=%d max_view=%d\n"
    res.Spire.Scenarios.confirmed res.Spire.Scenarios.submitted
    res.Spire.Scenarios.max_view;
  let s = Spire.System.fleet_stats sys in
  Printf.printf
    "devices=%d rounds=%d events_seen=%d reports=%d dups=%d churn=%d \
     adverts=%d frames=%d polls=%d poll_bytes=%d writes=%d conf_events=%d \
     conf_writes=%d\n"
    s.Field.Concentrator.device_count s.rounds s.events_seen
    s.reports_accepted s.dups_dropped s.churn s.adverts_sent s.report_frames
    s.polls_sent s.poll_bytes s.writes_issued s.confirmed_events
    s.confirmed_writes;
  List.iter
    (fun (k, f, b) -> Printf.printf "  %-28s %8d %12d\n" k f b)
    (Spire.System.wire_traffic sys)
