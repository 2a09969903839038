(* Proactive recovery drill: rejuvenation under fire.

     dune exec examples/recovery_drill.exe

   Every replica is periodically rebooted from a clean image with a
   fresh diversity variant while an attacker with a working exploit
   keeps trying to re-establish a foothold. Because n = 3f + 2k + 1,
   the system keeps a full quorum even while k=1 replica is down for
   its rejuvenation and f=1 is compromised.

   Watch: (1) the service never stops, (2) state transfer brings each
   rejuvenated replica back in sync, (3) the attacker's holdings are
   wiped by each rejuvenation. *)

let () =
  let cfg =
    { (Spire.System.default_config ()) with Spire.System.substations = 5 }
  in
  let sys = Spire.System.create cfg in
  let engine = Spire.System.engine sys in

  (* Attack campaign: the attacker has an exploit for whatever variant
     replica 3 currently runs and keeps re-attacking. *)
  let diversity = Spire.System.diversity sys in
  let campaign =
    Attack.Campaign.create ~engine ~rng:(Sim.Engine.rng engine) ~diversity
      ~config:
        {
          Attack.Campaign.exploit_development_us = 20_000_000;
          attempt_interval_us = 5_000_000;
        }
      ~on_compromise:(fun r ->
        Printf.printf "  [%6.1fs] ATTACKER compromises replica %d (variant %d)\n"
          (float_of_int (Sim.Engine.now engine) /. 1e6)
          r
          (Recovery.Diversity.variant_of diversity r);
        (Spire.System.faults sys r).Bft.Faults.silent <- true)
      ~on_cleanse:(fun r ->
        Printf.printf "  [%6.1fs] rejuvenation CLEANSES replica %d\n"
          (float_of_int (Sim.Engine.now engine) /. 1e6)
          r;
        (Spire.System.faults sys r).Bft.Faults.silent <- false)
  in
  Spire.System.on_recovery_event sys (fun phase r ->
      let now = float_of_int (Sim.Engine.now engine) /. 1e6 in
      match phase with
      | `Begin ->
        Printf.printf "  [%6.1fs] recovery begins: replica %d goes down\n" now r;
        Attack.Campaign.set_recovering campaign r true
      | `Complete ->
        Printf.printf
          "  [%6.1fs] recovery done: replica %d back (fresh variant %d)\n" now r
          (Recovery.Diversity.variant_of diversity r);
        Attack.Campaign.set_recovering campaign r false;
        Attack.Campaign.notify_rejuvenated campaign r);

  Printf.printf "Proactive recovery drill: 6 replicas, rotation every 60 s\n\n%!";
  Spire.System.start sys;
  ignore
    (Spire.System.enable_recovery sys ~rotation_period_us:60_000_000
       ~recovery_duration_us:5_000_000
      : Recovery.Scheduler.t);
  Attack.Campaign.start campaign;
  Spire.System.run sys ~duration_us:130_000_000;

  Spire.System.assert_agreement sys;
  Printf.printf "\nafter 130 s:\n";
  Printf.printf "  updates confirmed: %d (service never stopped)\n"
    (Spire.System.confirmed_updates sys);
  let max_held = Attack.Campaign.max_simultaneous campaign in
  Printf.printf "  attacker max simultaneous holdings: %d%s\n" max_held
    (if max_held <= 1 then " (within f = 1)"
     else " (variant collision let the attacker briefly exceed f)");
  Printf.printf "  agreement across correct replicas: OK\n"
