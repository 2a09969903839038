(* Scenario runner CLI.

   Runs any of the repository's experiment scenarios from the command
   line with configurable durations and parameters, printing the
   latency distribution and safety-check outcome. The benchmark harness
   (bench/main.exe) drives the same scenario functions; this tool is for
   interactive exploration. *)

open Cmdliner

let ms v = v * 1_000
let print_result name (r : Spire.Scenarios.latency_result) =
  Format.printf "scenario: %s@." name;
  Format.printf "  submitted: %d  confirmed: %d  max view: %d@."
    r.Spire.Scenarios.submitted r.Spire.Scenarios.confirmed
    r.Spire.Scenarios.max_view;
  if Stats.Histogram.count r.Spire.Scenarios.hist > 0 then
    Format.printf "  latency (ms): %a@." Stats.Histogram.pp
      r.Spire.Scenarios.hist;
  Format.printf "  agreement: OK (asserted)@."

(* Range-checked integer options: a value outside [min .. max] is a
   command-line error (exit 124), never a healthy-looking run that
   simulated nothing nor an internal error from deep inside a run. *)
let int_in ?(max = max_int) min =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok i when i >= min && i <= max -> Ok i
    | Ok i when max = max_int ->
      Error (`Msg (Printf.sprintf "%d is below the minimum %d" i min))
    | Ok i -> Error (`Msg (Printf.sprintf "%d out of range %d..%d" i min max))
    | Error e -> Error e
  in
  Arg.conv (parse, Format.pp_print_int)

(* Every time option is bounded by one horizon, 10^9 virtual seconds
   (~32 years; the longest experiment, E3, runs 30 h). In microseconds
   it is far below [max_int], so neither an option scaled to
   microseconds nor the scenarios' arithmetic on it (5/8 of a run, say)
   can wrap into a run that simulates nothing or an internal error; and
   an interval or delay past it could never take effect. *)
let horizon_s = 1_000_000_000
let seconds_in min = int_in ~max:horizon_s min
let ms_in min = int_in ~max:(horizon_s * 1_000) min

let duration_arg =
  Arg.(
    value & opt (seconds_in 1) 30
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Virtual duration in seconds.")

let seed_arg =
  Arg.(value & opt int 0x5917 & info [ "seed" ] ~doc:"Deterministic RNG seed.")

(* ------------------------------------------------------------------ *)

(* A proxy polls first one interval after start, so an interval longer
   than the run submits nothing: a command-line error, not a run that
   reports zero updates and exits 0. *)
let fault_free duration seed substations poll_ms =
  if ms poll_ms > duration * 1_000_000 then
    `Error
      ( false,
        Printf.sprintf "--poll-ms %d is longer than the %d s run: no poll fires"
          poll_ms duration )
  else begin
    let cfg =
      {
        (Spire.System.default_config ()) with
        Spire.System.substations;
        poll_interval_us = ms poll_ms;
        seed = Int64.of_int seed;
      }
    in
    let _, r =
      Spire.Scenarios.fault_free ~config:cfg ~duration_us:(duration * 1_000_000)
        ()
    in
    print_result "fault-free wide-area" r;
    `Ok 0
  end

let fault_free_cmd =
  let substations =
    Arg.(
      value & opt (int_in 0) 10 & info [ "substations" ] ~doc:"Substation count.")
  in
  let poll =
    Arg.(value & opt (ms_in 1) 100 & info [ "poll-ms" ] ~doc:"Poll interval (ms).")
  in
  Cmd.v
    (Cmd.info "fault-free" ~doc:"Wide-area deployment, no faults (E2/E3).")
    Term.(ret (const fault_free $ duration_arg $ seed_arg $ substations $ poll))

let leader_attack duration protocol delay_ms =
  let duration_us = duration * 1_000_000 in
  let _, r =
    Spire.Scenarios.leader_attack ~protocol ~delay_us:(ms delay_ms)
      ~attack_from_us:(duration_us / 6) ~duration_us ()
  in
  print_result "leader slowdown attack" r;
  0

let leader_attack_cmd =
  let protocol =
    Arg.(
      value
      & opt
          (enum
             [
               ("prime", Spire.System.Prime_protocol);
               ("pbft", Spire.System.Pbft_protocol);
             ])
          Spire.System.Prime_protocol
      & info [ "protocol" ] ~doc:"Replication protocol: prime or pbft.")
  in
  let delay =
    Arg.(
      value & opt (ms_in 0) 1000
      & info [ "delay-ms" ] ~doc:"Proposal delay injected at the leader (ms).")
  in
  Cmd.v
    (Cmd.info "leader-attack"
       ~doc:"Malicious leader performance attack (E4).")
    Term.(const leader_attack $ duration_arg $ protocol $ delay)

let site_failure duration site restore =
  let duration_us = duration * 1_000_000 in
  let restore_at_us = if restore then Some (duration_us * 5 / 8) else None in
  let _, r =
    Spire.Scenarios.site_failure ~site ~fail_at_us:(duration_us / 4)
      ~restore_at_us ~duration_us ()
  in
  print_result "control-center loss" r;
  0

let site_failure_cmd =
  (* Only a site of the default deployment: an out-of-range index
     would disconnect nothing and report a healthy run. *)
  let sites =
    List.length (Spire.System.site_sizes (Spire.System.default_config ()))
  in
  let site =
    Arg.(
      value
      & opt (int_in ~max:(sites - 1) 0) 0
      & info [ "site" ] ~docv:"SITE"
          ~doc:(Printf.sprintf "Site to disconnect (0..%d)." (sites - 1)))
  in
  let restore =
    Arg.(value & flag & info [ "restore" ] ~doc:"Reconnect the site later.")
  in
  Cmd.v
    (Cmd.info "site-failure" ~doc:"Disconnect a whole control center (E7).")
    Term.(const site_failure $ duration_arg $ site $ restore)

let recovery duration rotation_s =
  let _, r, events =
    Spire.Scenarios.proactive_recovery
      ~rotation_period_us:(rotation_s * 1_000_000)
      ~recovery_duration_us:10_000_000
      ~duration_us:(duration * 1_000_000) ()
  in
  print_result "proactive recovery" r;
  Format.printf "  recovery events: %d@." (List.length events);
  0

let recovery_cmd =
  let rotation =
    Arg.(
      value & opt (seconds_in 1) 120
      & info [ "rotation" ] ~docv:"SECONDS" ~doc:"Full rotation period.")
  in
  Cmd.v
    (Cmd.info "recovery" ~doc:"Proactive recovery rotation (E5).")
    Term.(const recovery $ duration_arg $ rotation)

let dos duration mode factor =
  let duration_us = duration * 1_000_000 in
  let _, r =
    Spire.Scenarios.link_degradation ~mode ~factor
      ~attack_from_us:(duration_us / 4) ~duration_us ()
  in
  print_result "network delay attack" r;
  0

let dos_cmd =
  let mode =
    Arg.(
      value
      & opt
          (enum
             [
               ("shortest", Overlay.Net.Shortest);
               ("redundant", Overlay.Net.Redundant 2);
               ("flood", Overlay.Net.Flood);
             ])
          (Overlay.Net.Redundant 2)
      & info [ "mode" ] ~doc:"Dissemination: shortest, redundant, flood.")
  in
  let factor_conv =
    let parse s =
      match Arg.conv_parser Arg.float s with
      | Ok f when Float.is_finite f && f >= 1. -> Ok f
      | Ok f -> Error (`Msg (Printf.sprintf "%g is not a finite factor >= 1" f))
      | Error e -> Error e
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let factor =
    Arg.(
      value & opt factor_conv 20.
      & info [ "factor" ] ~doc:"Latency inflation factor on attacked links.")
  in
  Cmd.v
    (Cmd.info "network-attack"
       ~doc:"Delay attack on primary WAN links (E6).")
    Term.(const dos $ duration_arg $ mode $ factor)

let campaign hours_ diversity recovery =
  let _, c =
    Spire.Scenarios.intrusion_campaign ~diversity_on:diversity
      ~recovery_on:recovery
      ~duration_us:(hours_ * 3600 * 1_000_000) ()
  in
  Format.printf "intrusion campaign (%d h): max simultaneous %d, total %d,@."
    hours_ c.Spire.Scenarios.max_simultaneous_compromised
    c.Spire.Scenarios.total_compromises;
  Format.printf "  exploits developed %d, time above f: %ds, held at end: %d@."
    c.Spire.Scenarios.exploits_developed
    (c.Spire.Scenarios.time_above_f_us / 1_000_000)
    c.Spire.Scenarios.final_compromised;
  0

let campaign_cmd =
  let hours_arg =
    Arg.(
      value
      & opt (int_in ~max:(horizon_s / 3_600) 1) 6
      & info [ "hours" ] ~doc:"Virtual hours to run.")
  in
  let diversity =
    Arg.(value & opt bool true & info [ "diversity" ] ~doc:"Diversity on/off.")
  in
  let recovery =
    Arg.(value & opt bool true & info [ "recovery" ] ~doc:"Recovery on/off.")
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Long-running intrusion campaign (E9).")
    Term.(const campaign $ hours_arg $ diversity $ recovery)

let main_cmd =
  let doc = "run Spire reproduction scenarios" in
  Cmd.group (Cmd.info "spire_run" ~doc)
    [
      fault_free_cmd;
      leader_attack_cmd;
      site_failure_cmd;
      recovery_cmd;
      dos_cmd;
      campaign_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
