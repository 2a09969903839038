(* Consolidated debug driver: every one-off repro/driver that used to
   be its own debug_*.exe, behind a single dispatcher.

     dune exec dev/debug.exe -- <case> [args]

   Each case module is the old executable verbatim, with Sys.argv
   replaced by the dispatcher's shifted argv (args.(0) is the case
   name, so positional indices are unchanged). *)

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

module Case_e7 = struct
  let run (args : string array) =
      ignore (args : string array);
    let sys = Spire.System.create (Spire.System.default_config ()) in
    Spire.System.start sys;
    ignore
      (Sim.Engine.schedule_at (Spire.System.engine sys) ~time_us:10_000_000
         (fun () -> Spire.System.kill_site sys 0));
    Spire.System.run sys ~duration_us:20_000_000;
    (* Mid-outage: who is stuck? *)
    for c = 0 to 9 do
      let ep = Scada.Proxy.endpoint (Spire.System.proxy sys c) in
      Printf.printf "client %d: completed=%d pending=%d resubmits=%d\n" c
        (Scada.Endpoint.completed_count ep)
        (Scada.Endpoint.pending_count ep)
        (Scada.Endpoint.resubmit_count ep)
    done;
    Printf.printf "confirmed=%d submitted=%d\n"
      (Spire.System.confirmed_updates sys)
      (Spire.System.submitted_updates sys)
end

module Case_iso = struct
  let run (args : string array) =
      ignore (args : string array);
    let cfg =
      {
        (Spire.System.default_config ()) with
        Spire.System.substations = 4;
        poll_interval_us = 50_000;
      }
    in
    let sys = Spire.System.create cfg in
    Spire.System.start sys;
    ignore
      (Sim.Engine.schedule_at (Spire.System.engine sys) ~time_us:1_000_000
         (fun () -> Spire.System.isolate_site sys 0));
    ignore
      (Sim.Engine.schedule_at (Spire.System.engine sys) ~time_us:5_000_000
         (fun () -> Spire.System.reconnect_site sys 0));
    for i = 1 to 20 do
      Spire.System.run sys ~duration_us:500_000;
      Printf.printf "t=%4.1fs confirmed=%d views=[%s] execs=[%s]\n"
        (float_of_int i *. 0.5)
        (Spire.System.confirmed_updates sys)
        (String.concat ","
           (List.init 6 (fun r -> string_of_int (Spire.System.view_of sys r))))
        (String.concat ","
           (List.init 6 (fun r ->
                string_of_int (Bft.Exec_log.length (Spire.System.exec_log sys r)))))
    done;
    Spire.System.assert_agreement sys
end

module Case_loss = struct
  let run (args : string array) =
      ignore (args : string array);
    let cfg =
      { (Spire.System.default_config ()) with Spire.System.substations = 10 }
    in
    let sys = Spire.System.create cfg in
    let net = Spire.System.net sys in
    let topo = Overlay.Net.topology net in
    let n = Spire.System.replica_count sys in
    List.iter
      (fun link ->
        let a = link.Overlay.Topology.endpoint_a
        and b = link.Overlay.Topology.endpoint_b in
        if
          a < n && b < n
          && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
        then Overlay.Net.set_loss_probability net a b 0.4)
      (Overlay.Topology.links topo);
    Spire.System.start sys;
    (try
       for _ = 1 to 40 do
         Spire.System.run sys ~duration_us:500_000;
         Spire.System.assert_agreement sys
       done;
       print_endline "no divergence in 20s"
     with Failure msg ->
       Printf.printf "%s at t=%d\n" msg (Sim.Engine.now (Spire.System.engine sys)));
    (* Compare logs pairwise for first difference. *)
    let logs = List.init n (fun r -> Spire.System.exec_log sys r) in
    let l0 = List.nth logs 0 in
    List.iteri
      (fun i li ->
        if i > 0 then begin
          let n0 = Bft.Exec_log.length l0 and ni = Bft.Exec_log.length li in
          let common = min n0 ni in
          let rec first_diff p =
            if p > common then None
            else if
              not
                (Cryptosim.Digest.equal
                   (Bft.Exec_log.digest_at l0 p)
                   (Bft.Exec_log.digest_at li p))
            then Some p
            else first_diff (p + 1)
          in
          match first_diff 1 with
          | Some p ->
            let u0 = Bft.Exec_log.nth l0 p and ui = Bft.Exec_log.nth li p in
            Printf.printf
              "replica 0 vs %d: first diff at position %d: (%d,%d)%s vs (%d,%d)%s\n"
              i p (fst (Bft.Update.key u0)) (snd (Bft.Update.key u0))
              "" (fst (Bft.Update.key ui)) (snd (Bft.Update.key ui)) ""
          | None ->
            Printf.printf "replica 0 vs %d: no diff in common prefix (%d vs %d)\n" i
              n0 ni
        end)
      logs;
    (* Compare applied slot matrices between replicas 0 and 4. *)
    (match
       ( List.nth
           (List.init n (fun r ->
                match Spire.System.exec_log sys r with _ -> r))
           0,
         () )
     with
    | _ -> ());
    ()
end

module Case_loss2 = struct
  (* Focused repro: prime cluster with random message loss; find the
     first slot where applied matrices diverge. *)
  
  let quorum_6 = Bft.Quorum.create ~n:6 ~f:1 ~k:1
  
  let fast_prime quorum =
    {
      (Prime.Replica.default_config quorum) with
      Prime.Replica.aru_interval_us = 2_000;
      proposal_interval_us = 5_000;
      tat_threshold_us = 100_000;
      viewchange_timeout_us = 400_000;
      watchdog_interval_us = 10_000;
      checkpoint_interval = 16;
    }
  
  let run (args : string array) =
    let usage = "debug.exe loss2 [seed] [loss]" in
    let seed = Cli.int64_arg ~default:99L ~usage args 1 in
    let loss =
      Cli.arg ~default:0.10 ~usage ~what:"a loss probability in [0, 1)"
        (fun s ->
          match float_of_string_opt s with
          | Some p when p >= 0. && p < 1. -> Some p
          | _ -> None)
        args 2
    in
    let engine = Sim.Engine.create ~seed () in
    let drop_rng = Sim.Engine.rng engine in
    let n = 6 in
    let replicas : Prime.Replica.t option array = Array.make n None in
    let cluster =
      Bft.Cluster.create ~engine ~n
        ~latency_us:(fun _ _ -> 1_000)
        ~make:(fun i env ->
          (* Wrap send with random loss. *)
          let lossy_env =
            {
              env with
              Bft.Env.send =
                (fun dst msg ->
                  if not (Sim.Rng.bernoulli drop_rng loss) then
                    env.Bft.Env.send dst msg);
            }
          in
          let r =
            Prime.Replica.create (fast_prime quorum_6) lossy_env
              ~execute:(fun _ _ -> ())
          in
          replicas.(i) <- Some r;
          Prime.Replica.start r;
          r)
        ~deliver:(fun r ~from msg -> Prime.Replica.handle r ~from msg)
    in
    ignore cluster;
    for i = 1 to 60 do
      let origin = i mod n in
      ignore
        (Sim.Engine.schedule_at engine ~time_us:(10_000 + (i * 40_000)) (fun () ->
             Prime.Replica.submit
               (Option.get replicas.(origin))
               (Bft.Update.create ~client:(i mod 3)
                  ~client_seq:(((i - 1) / 3) + 1)
                  ~operation:(Printf.sprintf "op%d" i)
                  ~submitted_us:0)))
    done;
    Sim.Engine.run engine ~until_us:20_000_000;
    let get r = Option.get replicas.(r) in
    for r = 0 to n - 1 do
      Printf.printf "replica %d: view=%d exec=%d applied=%d\n" r
        (Prime.Replica.view (get r))
        (Bft.Exec_log.length (Prime.Replica.exec_log (get r)))
        (Prime.Replica.last_applied (get r))
    done;
    (* Compare applied matrices slot by slot. *)
    let max_applied =
      List.fold_left max 0 (List.init n (fun r -> Prime.Replica.last_applied (get r)))
    in
    for seq = 1 to max_applied do
      let digests =
        List.init n (fun r -> Prime.Replica.applied_matrix_digest (get r) seq)
      in
      let present = List.filter_map Fun.id digests in
      match present with
      | [] -> ()
      | first :: rest ->
        if not (List.for_all (Cryptosim.Digest.equal first) rest) then
          Printf.printf "slot %d: DIVERGENT matrices: %s\n" seq
            (String.concat " "
               (List.mapi
                  (fun r d ->
                    match d with
                    | None -> Printf.sprintf "%d:-" r
                    | Some d -> Printf.sprintf "%d:%s" r (String.sub (Cryptosim.Digest.to_hex d) 0 6))
                  digests))
    done;
    (* Agreement check. *)
    let l0 = Prime.Replica.exec_log (get 0) in
    for r = 1 to n - 1 do
      if not (Bft.Exec_log.prefix_equal l0 (Prime.Replica.exec_log (get r))) then
        Printf.printf "DIVERGENCE between 0 and %d\n" r
    done;
    print_endline "done"
end

module Case_one = struct
  let log fmt = Printf.eprintf (fmt ^^ "\n%!")
  
  let run (args : string array) =
      ignore (args : string array);
    let which = try args.(1) with _ -> "e5" in
    let t0 = Unix.gettimeofday () in
    (match which with
    | "e5" ->
      let sys = Spire.System.create (Spire.System.default_config ()) in
      Spire.System.start sys;
      ignore
        (Spire.System.enable_recovery sys ~rotation_period_us:60_000_000
           ~recovery_duration_us:3_000_000);
      for i = 1 to 12 do
        Spire.System.run sys ~duration_us:10_000_000;
        log "t=%ds events=%d confirmed=%d rss-words=%d" (i * 10)
          (Sim.Engine.processed (Spire.System.engine sys))
          (Spire.System.confirmed_updates sys)
          (let s = Gc.quick_stat () in s.Gc.heap_words)
      done;
      Spire.System.assert_agreement sys;
      log "E5 ok"
    | "e6" ->
      List.iter
        (fun (name, mode) ->
          let _, r =
            Spire.Scenarios.link_degradation ~mode ~factor:20.
              ~attack_from_us:5_000_000 ~duration_us:20_000_000 ()
          in
          log "E6 %s: confirmed=%d mean=%.1f p99=%.1f" name r.Spire.Scenarios.confirmed
            (Stats.Histogram.mean r.Spire.Scenarios.hist)
            (Stats.Histogram.percentile r.Spire.Scenarios.hist 99.))
        [ ("shortest", Overlay.Net.Shortest); ("redundant2", Overlay.Net.Redundant 2); ("flood", Overlay.Net.Flood) ]
    | "e7" ->
      let _, r =
        Spire.Scenarios.site_failure ~site:0 ~fail_at_us:10_000_000
          ~restore_at_us:(Some 25_000_000) ~duration_us:40_000_000 ()
      in
      log "E7: confirmed=%d/%d" r.Spire.Scenarios.confirmed r.Spire.Scenarios.submitted
    | "e9" ->
      let _, c =
        Spire.Scenarios.intrusion_campaign ~diversity_on:true ~recovery_on:true
          ~duration_us:(2 * 3600 * 1_000_000) ()
      in
      log "E9: max=%d total=%d" c.Spire.Scenarios.max_simultaneous_compromised
        c.Spire.Scenarios.total_compromises
    | other -> log "unknown %s" other);
    log "done in %.1fs" (Unix.gettimeofday () -. t0)
end

module Case_pbft = struct
  let run (args : string array) =
      ignore (args : string array);
    let quorum = Bft.Quorum.create ~n:4 ~f:1 ~k:0 in
    let config =
      {
        (Pbft.Replica.default_config quorum) with
        Pbft.Replica.request_timeout_us = 500_000;
        viewchange_timeout_us = 1_000_000;
        watchdog_interval_us = 50_000;
        checkpoint_interval = 8;
      }
    in
    let engine = Sim.Engine.create ~seed:42L () in
    let cluster =
      Bft.Cluster.create ~engine ~n:4
        ~latency_us:(fun _ _ -> 1_000)
        ~make:(fun i env ->
          let env = { env with Bft.Env.trace = (fun s -> Printf.printf "[%d @ %d] %s\n" i (Sim.Engine.now engine) s) } in
          let r = Pbft.Replica.create config env ~execute:(fun seq u -> Printf.printf "[%d @ %d] exec s%d %s\n" i (Sim.Engine.now engine) seq (Format.asprintf "%a" Bft.Update.pp u)) in
          Pbft.Replica.start r;
          r)
        ~deliver:(fun r ~from msg -> Pbft.Replica.handle r ~from msg)
    in
    let r0 = Bft.Cluster.replica cluster 0 in
    (Pbft.Replica.faults r0).Bft.Faults.crashed <- true;
    for i = 1 to 5 do
      ignore
        (Sim.Engine.schedule_at engine ~time_us:(100_000 + (i * 10_000)) (fun () ->
             Pbft.Replica.submit (Bft.Cluster.replica cluster 1)
               (Bft.Update.create ~client:1 ~client_seq:i ~operation:"op" ~submitted_us:0)))
    done;
    Sim.Engine.run engine ~until_us:20_000_000;
    for i = 0 to 3 do
      let r = Bft.Cluster.replica cluster i in
      Printf.printf "replica %d: view=%d last_exec=%d pending=%d vc=%d\n" i
        (Pbft.Replica.view r) (Pbft.Replica.last_executed r)
        (Pbft.Replica.pending_count r) (Pbft.Replica.view_changes r)
    done
end

module Case_rec = struct
  let run (args : string array) =
      ignore (args : string array);
    let cfg =
      {
        (Spire.System.default_config ()) with
        Spire.System.substations = 4;
        poll_interval_us = 50_000;
      }
    in
    let sys = Spire.System.create cfg in
    Spire.System.start sys;
    ignore
      (Spire.System.enable_recovery sys ~rotation_period_us:3_000_000
         ~recovery_duration_us:300_000);
    for i = 1 to 14 do
      Spire.System.run sys ~duration_us:500_000;
      Printf.printf "t=%.1fs confirmed=%d views=[%s]\n" (float_of_int i *. 0.5)
        (Spire.System.confirmed_updates sys)
        (String.concat ","
           (List.init 6 (fun r -> string_of_int (Spire.System.view_of sys r))))
    done;
    Spire.System.assert_agreement sys
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

module Case_scenarios = struct
  let pr_result name (r : Spire.Scenarios.latency_result) =
    Printf.printf "%s: submitted=%d confirmed=%d max_view=%d\n" name r.submitted
      r.confirmed r.max_view;
    if Stats.Histogram.count r.hist > 0 then
      Format.printf "  latency: %a@." Stats.Histogram.pp r.hist
  
  let run (args : string array) =
      ignore (args : string array);
    let t0 = Unix.gettimeofday () in
    (* E4 prime *)
    let _, rp =
      Spire.Scenarios.leader_attack ~protocol:Spire.System.Prime_protocol
        ~delay_us:1_000_000 ~attack_from_us:5_000_000 ~duration_us:30_000_000 ()
    in
    pr_result "E4 prime (1s leader delay)" rp;
    let _, rb =
      Spire.Scenarios.leader_attack ~protocol:Spire.System.Pbft_protocol
        ~delay_us:1_000_000 ~attack_from_us:5_000_000 ~duration_us:30_000_000 ()
    in
    pr_result "E4 pbft (1s leader delay)" rb;
    Printf.printf "-- %.1fs\n%!" (Unix.gettimeofday () -. t0);
    (* E5 recovery *)
    let _, r5, events =
      Spire.Scenarios.proactive_recovery ~rotation_period_us:60_000_000
        ~recovery_duration_us:3_000_000 ~duration_us:120_000_000 ()
    in
    pr_result "E5 recovery" r5;
    Printf.printf "  recovery events: %d\n" (List.length events);
    Printf.printf "-- %.1fs\n%!" (Unix.gettimeofday () -. t0);
    (* E6 degradation *)
    List.iter
      (fun (name, mode) ->
        let _, r =
          Spire.Scenarios.link_degradation ~mode ~factor:20.
            ~attack_from_us:5_000_000 ~duration_us:20_000_000 ()
        in
        pr_result ("E6 " ^ name) r)
      [
        ("shortest", Overlay.Net.Shortest);
        ("redundant2", Overlay.Net.Redundant 2);
        ("flood", Overlay.Net.Flood);
      ];
    Printf.printf "-- %.1fs\n%!" (Unix.gettimeofday () -. t0);
    (* E7 site failure *)
    let _, r7 =
      Spire.Scenarios.site_failure ~site:0 ~fail_at_us:10_000_000
        ~restore_at_us:(Some 25_000_000) ~duration_us:40_000_000 ()
    in
    pr_result "E7 site failure" r7;
    Printf.printf "-- %.1fs\n%!" (Unix.gettimeofday () -. t0);
    (* E9 campaign quick *)
    let _, c =
      Spire.Scenarios.intrusion_campaign ~diversity_on:true ~recovery_on:true
        ~duration_us:(6 * 3600 * 1_000_000) ()
    in
    Printf.printf
      "E9 div+rec: max_simul=%d total=%d exploits=%d above_f=%ds final=%d\n"
      c.Spire.Scenarios.max_simultaneous_compromised
      c.Spire.Scenarios.total_compromises c.Spire.Scenarios.exploits_developed
      (c.Spire.Scenarios.time_above_f_us / 1_000_000)
      c.Spire.Scenarios.final_compromised;
    let _, c2 =
      Spire.Scenarios.intrusion_campaign ~diversity_on:false ~recovery_on:false
        ~duration_us:(6 * 3600 * 1_000_000) ()
    in
    Printf.printf "E9 ablation: max_simul=%d total=%d final=%d\n"
      c2.Spire.Scenarios.max_simultaneous_compromised
      c2.Spire.Scenarios.total_compromises c2.Spire.Scenarios.final_compromised;
    Printf.printf "-- total %.1fs\n" (Unix.gettimeofday () -. t0)
end

module Case_site = struct
  let run (args : string array) =
      ignore (args : string array);
    let cfg =
      {
        (Spire.System.default_config ()) with
        Spire.System.substations = 4;
        poll_interval_us = 50_000;
      }
    in
    let sys = Spire.System.create cfg in
    Spire.System.start sys;
    ignore
      (Sim.Engine.schedule_at (Spire.System.engine sys) ~time_us:1_000_000
         (fun () -> Spire.System.kill_site sys 0));
    for i = 1 to 10 do
      Spire.System.run sys ~duration_us:500_000;
      Printf.printf "t=%.1fs confirmed=%d views=[%s] leader=%d\n" (float_of_int i *. 0.5)
        (Spire.System.confirmed_updates sys)
        (String.concat ","
           (List.init 6 (fun r -> string_of_int (Spire.System.view_of sys r))))
        (Spire.System.current_leader sys)
    done;
    for c = 0 to 3 do
      let ep = Scada.Proxy.endpoint (Spire.System.proxy sys c) in
      Printf.printf "client %d: completed=%d pending=%d resubmits=%d\n" c
        (Scada.Endpoint.completed_count ep)
        (Scada.Endpoint.pending_count ep)
        (Scada.Endpoint.resubmit_count ep)
    done;
    Spire.System.assert_agreement sys
end

module Case_stress = struct
  (* Reproduce a failing stress seed with diagnostics. *)
  
  let quorum_6 = Bft.Quorum.create ~n:6 ~f:1 ~k:1
  
  let fast_prime quorum =
    {
      (Prime.Replica.default_config quorum) with
      Prime.Replica.aru_interval_us = 2_000;
      proposal_interval_us = 5_000;
      tat_threshold_us = 100_000;
      viewchange_timeout_us = 400_000;
      watchdog_interval_us = 10_000;
      checkpoint_interval = 16;
    }
  
  let run (args : string array) =
    let seed = int_arg ~usage:"stress <seed>" args 1 in
    let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
    let rng = Sim.Engine.rng engine in
    let n = 6 in
    let cluster =
      Bft.Cluster.create ~engine ~n
        ~latency_us:(fun _ _ -> 500 + Sim.Rng.int rng 2_000)
        ~make:(fun _ env ->
          let r = Prime.Replica.create (fast_prime quorum_6) env ~execute:(fun _ _ -> ()) in
          Prime.Replica.start r;
          r)
        ~deliver:(fun r ~from msg -> Prime.Replica.handle r ~from msg)
    in
    let victim = Sim.Rng.int rng n in
    for i = 1 to 40 do
      let origin = (victim + 1 + Sim.Rng.int rng (n - 1)) mod n in
      let time_us = 10_000 + Sim.Rng.int rng 2_000_000 in
      ignore
        (Sim.Engine.schedule_at engine ~time_us (fun () ->
             Prime.Replica.submit
               (Bft.Cluster.replica cluster origin)
               (Bft.Update.create ~client:(i mod 3)
                  ~client_seq:(((i - 1) / 3) + 1)
                  ~operation:(Printf.sprintf "op%d" i)
                  ~submitted_us:time_us)))
    done;
    let misbehaviour = Sim.Rng.int rng 4 in
    let faults = Prime.Replica.faults (Bft.Cluster.replica cluster victim) in
    let attack_at = 200_000 + Sim.Rng.int rng 500_000 in
    ignore
      (Sim.Engine.schedule_at engine ~time_us:attack_at (fun () ->
           match misbehaviour with
           | 0 -> faults.Bft.Faults.crashed <- true
           | 1 -> faults.Bft.Faults.silent <- true
           | 2 -> faults.Bft.Faults.proposal_delay_us <- 300_000
           | _ ->
             let drop_target = Sim.Rng.int rng n in
             faults.Bft.Faults.drop_to <- (fun r -> r = drop_target)));
    let reset = Sim.Rng.bool rng in
    if reset then
      ignore
        (Sim.Engine.schedule_at engine
           ~time_us:(1_200_000 + Sim.Rng.int rng 500_000)
           (fun () -> Bft.Faults.reset faults));
    Printf.printf "victim=%d misbehaviour=%d attack_at=%d reset=%b\n" victim
      misbehaviour attack_at reset;
    Sim.Engine.run engine ~until_us:12_000_000;
    for r = 0 to n - 1 do
      let rep = Bft.Cluster.replica cluster r in
      Printf.printf
        "replica %d: view=%d exec=%d last_applied=%d recv=%s suspected=%b\n" r
        (Prime.Replica.view rep)
        (Bft.Exec_log.length (Prime.Replica.exec_log rep))
        (Prime.Replica.last_applied rep)
        (Format.asprintf "%a" Prime.Matrix.pp_vector (Prime.Replica.recv_vector rep))
        (Prime.Replica.suspected rep)
    done
end

module Case_system = struct
  let run (args : string array) =
      ignore (args : string array);
    let cfg = Spire.System.default_config () in
    let sys = Spire.System.create cfg in
    Spire.System.start sys;
    let t0 = Unix.gettimeofday () in
    Spire.System.run sys ~duration_us:10_000_000;
    let wall = Unix.gettimeofday () -. t0 in
    Spire.System.assert_agreement sys;
    let hist = Spire.System.latency_histogram sys in
    Printf.printf "wall time: %.2fs, events: %d\n" wall
      (Sim.Engine.processed (Spire.System.engine sys));
    Printf.printf "submitted=%d confirmed=%d\n"
      (Spire.System.submitted_updates sys)
      (Spire.System.confirmed_updates sys);
    if Stats.Histogram.count hist > 0 then
      Format.printf "latency ms: %a@." Stats.Histogram.pp hist
    else print_endline "NO CONFIRMATIONS";
    for r = 0 to Spire.System.replica_count sys - 1 do
      Printf.printf "replica %d: view=%d exec=%d\n" r
        (Spire.System.view_of sys r)
        (Bft.Exec_log.length (Spire.System.exec_log sys r))
    done
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

let cases =
  [
    ("adapt", Case_adapt.run);
    ("chaos", Case_chaos.run);
    ("chaos2", Case_chaos2.run);
    ("e7", Case_e7.run);
    ("iso", Case_iso.run);
    ("loss", Case_loss.run);
    ("loss2", Case_loss2.run);
    ("one", Case_one.run);
    ("pbft", Case_pbft.run);
    ("rec", Case_rec.run);
    ("reconfig", Case_reconfig.run);
    ("scenarios", Case_scenarios.run);
    ("site", Case_site.run);
    ("stress", Case_stress.run);
    ("system", Case_system.run);
  ]

let () =
  match Array.to_list Sys.argv with
  | _ :: name :: rest when List.mem_assoc name cases ->
    (List.assoc name cases) (Array.of_list (name :: rest))
  | _ ->
    Printf.eprintf "usage: debug.exe <case> [args]\navailable cases: %s\n"
      (String.concat " " (List.map fst cases));
    exit 2
