(* Debug dispatcher: the dev probes behind one executable.

     dune exec dev/debug.exe -- <case> [args]

   Each case receives the dispatcher's shifted argv (args.(0) is the
   case name, so positional indices start at 1). The [batch] and
   [fleet] probes take their knobs from environment variables. *)

(* Positional integer argument [i] ([default] when absent); garbage
   exits 2 with the case's usage line. *)
let int_arg ?default ~usage args i =
  Cli.int_arg ?default ~usage:("debug.exe " ^ usage) args i

module Case_chaos = struct
  (* Quick chaos-harness driver: run N seeded soaks, print every report
     that is not clean (plus the first clean one for eyeballing). Usage:
       dune exec dev/debug.exe -- chaos [count] [first_seed]   *)
  
  let usage = "chaos [count] [first_seed]"

  let run (args : string array) =
    let count = int_arg ~default:10 ~usage args 1 in
    let first = int_arg ~default:1 ~usage args 2 in
    let t0 = Unix.gettimeofday () in
    let dirty = ref 0 in
    for i = first to first + count - 1 do
      let seed = Int64.of_int (i * 1_000_003) in
      let r = Chaos.Harness.soak ~seed () in
      if not (Chaos.Harness.clean r) then begin
        incr dirty;
        Format.printf "%a@." Chaos.Harness.pp_report r
      end
      else if i = first then Format.printf "%a@." Chaos.Harness.pp_report r
      else
        Format.printf "seed %Ld: clean (%d faults, %d confirmed, worst %.0fms)@."
          seed
          (List.length r.Chaos.Harness.schedule.Chaos.Schedule.events)
          r.Chaos.Harness.confirmed r.Chaos.Harness.worst_latency_ms
    done;
    Format.printf "%d/%d dirty, %.1fs wall@." !dirty count
      (Unix.gettimeofday () -. t0)
end

module Case_chaos2 = struct
  (* Bisect a dirty chaos schedule: rerun every subset of its events and
     report the minimal subsets that still violate an oracle.
     Usage: dune exec dev/debug.exe -- chaos2 <seed-int> *)
  
  let run (args : string array) =
    let seed_int = int_arg ~default:9000027 ~usage:"chaos2 [seed]" args 1 in
    let seed = Int64.of_int seed_int in
    let full = Chaos.Harness.soak ~seed () in
    Format.printf "full run:@.%a@." Chaos.Harness.pp_report full;
    let events = Array.of_list full.Chaos.Harness.schedule.Chaos.Schedule.events in
    let horizon = full.Chaos.Harness.schedule.Chaos.Schedule.horizon_us in
    let m = Array.length events in
    let dirty_masks = ref [] in
    for mask = 1 to (1 lsl m) - 1 do
      let subset =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list events)
      in
      let schedule = { Chaos.Schedule.horizon_us = horizon; events = subset } in
      let r = Chaos.Harness.run ~seed ~schedule () in
      if not (Chaos.Harness.clean r) then dirty_masks := (mask, r) :: !dirty_masks
    done;
    (* Print minimal dirty subsets (no dirty strict subset). *)
    let masks = List.map fst !dirty_masks in
    List.iter
      (fun (mask, r) ->
        let strictly_within other = other land mask = other && other <> mask in
        if not (List.exists strictly_within masks) then begin
          Format.printf "@.MINIMAL dirty subset (mask %d):@." mask;
          Format.printf "%a@." Chaos.Harness.pp_report r
        end)
      !dirty_masks;
    Format.printf "%d/%d subsets dirty@." (List.length !dirty_masks)
      ((1 lsl m) - 1)
end

module Case_reconfig = struct
  (* E11 probe: run the online-reconfiguration scenario and print the
     cutover chain, downtime, and per-epoch activity envelope. *)
  let run (args : string array) =
      ignore (args : string array);
    let duration_us = 50_000_000 in
    let _sys, r = Spire.Scenarios.reconfiguration ~duration_us () in
    Printf.printf "final epoch=%d n=%d confirmed=%d submitted=%d\n"
      r.Spire.Scenarios.final_epoch r.final_n r.base.Spire.Scenarios.confirmed
      r.base.Spire.Scenarios.submitted;
    List.iter
      (fun (e, boundary, time) ->
        Printf.printf "cutover epoch=%d boundary=%d t=%.1fs\n" e boundary
          (float_of_int time /. 1e6))
      r.cutovers;
    Printf.printf "stale frames=%d max confirm gap=%.2fs violation=%s\n"
      r.stale_frames
      (float_of_int r.max_confirm_gap_us /. 1e6)
      (match r.violation with None -> "none" | Some v -> v);
    (* Verify the epoch-safety oracle over the recorded samples. *)
    let check = Oracle.Epoch_check.create () in
    List.iter
      (fun (s : Spire.Scenarios.activity_sample) ->
        Oracle.Epoch_check.observe_activity check ~time_us:s.at_us
          ~live:(List.map (fun (e, live, _) -> (e, live)) s.per_epoch)
          ~quorum_of:(fun e ->
            match
              List.find_opt (fun (e', _, _) -> e' = e) s.per_epoch
            with
            | Some (_, _, q) -> q
            | None -> max_int))
      r.activity;
    (match r.violation with
    | Some v -> Oracle.Epoch_check.note_violation check v
    | None -> ());
    Format.printf "oracle: %a (%d samples)@." Oracle.Verdict.pp
      (Oracle.Epoch_check.verdict check)
      (Oracle.Epoch_check.observations check)
end

module Case_adapt = struct
  (* Adaptive-resilience probe: one E13 arm under a chosen attack, with
     the knob-change journal dumped at the end. Usage:
       dune exec dev/debug.exe -- adapt [leader|delay] [seconds]   *)

  let run (args : string array) =
    let attack_name =
      if Array.length args > 1 then args.(1) else "delay"
    in
    let seconds =
      int_arg ~default:40 ~usage:"adapt [leader|delay] [seconds]" args 2
    in
    let attack =
      match attack_name with
      | "leader" -> Spire.Scenarios.Leader_slowdown 1_000_000
      | "delay" -> Spire.Scenarios.Wan_delay 20.
      | other ->
        Printf.eprintf "unknown attack %S (leader|delay)\n" other;
        exit 2
    in
    let duration_us = seconds * 1_000_000 in
    let attack_from_us = duration_us / 4 in
    let t0 = Unix.gettimeofday () in
    let sys, r =
      Spire.Scenarios.adaptive ~attack ~attack_from_us ~duration_us ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    let b = r.Spire.Scenarios.base in
    Printf.printf
      "adaptive vs %s attack, %ds virtual (attack at %ds): wall=%.2fs\n"
      attack_name seconds (attack_from_us / 1_000_000) wall;
    Printf.printf
      "confirmed=%d/%d views=%d post-attack p99=%.1fms converged p99=%.1fms\n"
      b.Spire.Scenarios.confirmed b.Spire.Scenarios.submitted
      b.Spire.Scenarios.max_view r.Spire.Scenarios.post_attack_p99_ms
      (Spire.Scenarios.post_attack_p99 b.Spire.Scenarios.series
         ~from_us:(attack_from_us + (duration_us / 4)));
    Printf.printf "knobs: applied=%d rejected=%d journal_consistent=%b\n"
      r.Spire.Scenarios.knob_applied r.Spire.Scenarios.knob_rejected
      r.Spire.Scenarios.journal_consistent;
    Control.Knobs.print_journal (Spire.System.knobs sys);
    Printf.printf "%!"
end

module Case_batch = struct
  (* One-point throughput probe for tuning the E8 batch sweep:
       SUBS=<n> BATCH=<b> DUR_S=<s> dune exec dev/debug.exe -- batch   *)

  let getenv_int =
    Cli.env_int
      ~usage:
        "[SUBS=n] [BATCH=n] [DUR_S=n] [POLL_US=n] [WAN_BPS=n] [LAN_BPS=n] \
         [MODE=flood] debug.exe batch"

  let run (args : string array) =
    ignore (args : string array);
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
      Spire.Scenarios.throughput ~tweak ~max_batch ~substations
        ~poll_interval_us ~duration_us ()
    in
    let secs = float_of_int duration_us /. 1e6 in
    let h = r.Spire.Scenarios.hist in
    let pct p =
      if Stats.Histogram.count h > 0 then Stats.Histogram.percentile h p
      else nan
    in
    let net = Spire.System.net sys in
    let s = Overlay.Net.stats net in
    let wire = s.Overlay.Net.submitted_bytes in
    Printf.printf
      "subs=%d batch=%d confirmed/s=%.0f ratio=%.3f p50=%.1f p99=%.1f wire \
       MB=%.1f KB/upd=%.2f wall=%.1fs\n"
      substations max_batch
      (float_of_int r.Spire.Scenarios.confirmed /. secs)
      (float_of_int r.Spire.Scenarios.confirmed
      /. float_of_int (max 1 r.Spire.Scenarios.submitted))
      (pct 50.) (pct 99.)
      (float_of_int wire /. 1e6)
      (float_of_int wire /. 1e3
      /. float_of_int (max 1 r.Spire.Scenarios.confirmed))
      (Unix.gettimeofday () -. t0);
    Printf.printf
      "  drops: queue_full=%d link_down=%d no_route=%d arq=%d retrans=%d\n"
      s.Overlay.Net.dropped_queue_full s.Overlay.Net.dropped_link_down
      s.Overlay.Net.dropped_no_route s.Overlay.Net.dropped_arq_exhausted
      (Overlay.Net.retransmissions net);
    let top =
      List.sort
        (fun (a : Overlay.Net.link_report) b ->
          compare b.Overlay.Net.tx_busy_us a.Overlay.Net.tx_busy_us)
        (Overlay.Net.link_reports net)
    in
    List.iteri
      (fun i (lr : Overlay.Net.link_report) ->
        if i < 5 then
          Printf.printf "  link %d->%d util=%.2f MB=%.1f\n"
            lr.Overlay.Net.link_src lr.Overlay.Net.link_dst
            (Overlay.Net.link_utilisation net ~elapsed_us:duration_us lr)
            (float_of_int lr.Overlay.Net.tx_bytes /. 1e6))
      top
end

module Case_fleet = struct
  (* Device-fleet probe (E12): run a small fleet, print the roll-up
     stats and the wire ledger. Knobs: DEVICES (default 1000), CONC
     (default 4), DUR_S (default 10). *)

  let env_int =
    Cli.env_int ~usage:"[DEVICES=n] [CONC=n] [DUR_S=n] debug.exe fleet"

  let run (args : string array) =
    ignore (args : string array);
    let devices = env_int "DEVICES" 1000 in
    let concentrators = env_int "CONC" 4 in
    let duration_us = env_int "DUR_S" 10 * 1_000_000 in
    let sys, res =
      Spire.Scenarios.fleet ~concentrators ~devices ~duration_us ()
    in
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
end

let cases =
  [
    ("adapt", Case_adapt.run);
    ("batch", Case_batch.run);
    ("chaos", Case_chaos.run);
    ("chaos2", Case_chaos2.run);
    ("fleet", Case_fleet.run);
    ("reconfig", Case_reconfig.run);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: name :: rest when List.mem_assoc name cases ->
    (List.assoc name cases) (Array.of_list (name :: rest))
  | _ ->
    Printf.eprintf "usage: debug.exe <case> [args]\navailable cases: %s\n"
      (String.concat " " (List.map fst cases));
    exit 2
