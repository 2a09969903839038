type fault =
  | Link_flap of { a : int; b : int; down_us : int }
  | Daemon_churn of { replica : int; down_us : int }
  | Partition_site of { site : int; heal_after_us : int }
  | Loss_ramp of { a : int; b : int; peak : float; ramp_us : int; hold_us : int }
  | Latency_ramp of {
      a : int;
      b : int;
      peak_factor : float;
      ramp_us : int;
      hold_us : int;
    }
  | Crash_restart of { replica : int; down_us : int }
  | Silence of { replica : int; duration_us : int }
  | Clock_skew of { replica : int; delay_us : int; duration_us : int }
  | Message_delay of { replica : int; factor : float; duration_us : int }
  | Leader_delay of { delay_us : int; duration_us : int }
  | Wan_delay of { factor : float; duration_us : int }
  | Wan_loss of { loss : float; duration_us : int }
  | Site_kill of { site : int; down_us : int }

type event = { at_us : int; fault : fault }
type t = { horizon_us : int; events : event list }

type profile = {
  n : int;
  quorum : Bft.Quorum.t;
  sites : (int * int list) list;
  wan_links : (int * int) list;
}

(* Concurrency limits that do not come from the quorum. *)
let max_link_cuts = 1
let max_gray = 3

let primary_links profile =
  let gateways = List.map (fun (_, members) -> List.hd members) profile.sites in
  List.filter
    (fun (a, b) -> List.mem a gateways && List.mem b gateways)
    profile.wan_links

let duration_us = function
  | Link_flap { down_us; _ }
  | Daemon_churn { down_us; _ }
  | Crash_restart { down_us; _ }
  | Site_kill { down_us; _ } ->
    down_us
  | Partition_site { heal_after_us; _ } -> heal_after_us
  | Loss_ramp { ramp_us; hold_us; _ } | Latency_ramp { ramp_us; hold_us; _ } ->
    ramp_us + hold_us
  | Silence { duration_us; _ }
  | Clock_skew { duration_us; _ }
  | Message_delay { duration_us; _ }
  | Leader_delay { duration_us; _ }
  | Wan_delay { duration_us; _ }
  | Wan_loss { duration_us; _ } ->
    duration_us

type category = Byzantine | Down | Link_cut | Gray | Partition

let category = function
  | Silence _ | Clock_skew _ | Leader_delay _ -> Byzantine
  | Crash_restart _ | Daemon_churn _ -> Down
  | Link_flap _ -> Link_cut
  | Loss_ramp _ | Latency_ramp _ | Message_delay _ | Wan_delay _ | Wan_loss _ ->
    Gray
  | Partition_site _ | Site_kill _ -> Partition

(* Resources a fault occupies while active; two concurrent faults must
   not share a resource (last heal would clobber the other's state). *)
type target = Replica of int | Link of int * int | Site of int

let norm_link a b = if a < b then Link (a, b) else Link (b, a)

let targets profile = function
  | Link_flap { a; b; _ } -> [ norm_link a b ]
  | Daemon_churn { replica; _ } -> [ Replica replica ]
  | Partition_site { site; _ } | Site_kill { site; _ } -> (
    Site site
    ::
    (match List.assoc_opt site profile.sites with
    | Some members -> List.map (fun r -> Replica r) members
    | None -> []))
  | Loss_ramp { a; b; _ } | Latency_ramp { a; b; _ } -> [ norm_link a b ]
  | Crash_restart { replica; _ }
  | Silence { replica; _ }
  | Clock_skew { replica; _ } ->
    [ Replica replica ]
  | Message_delay { replica; factor = _; duration_us = _ } ->
    Replica replica
    :: List.filter_map
         (fun (a, b) ->
           if a = replica || b = replica then Some (norm_link a b) else None)
         profile.wan_links
  | Wan_delay _ -> List.map (fun (a, b) -> norm_link a b) (primary_links profile)
  | Wan_loss _ -> List.map (fun (a, b) -> norm_link a b) profile.wan_links
  (* Whoever leads when it starts: unknown until then. *)
  | Leader_delay _ -> []

(* What a fault counts toward its category's limit: a WAN-wide fault
   counts once per link, so bundling links cannot evade the budget. *)
let weight profile fault =
  match fault with
  | Wan_delay _ | Wan_loss _ -> List.length (targets profile fault)
  | _ -> 1

let overlaps (s1, e1) (s2, e2) = s1 < e2 && s2 < e1

let interval ev = (ev.at_us, ev.at_us + duration_us ev.fault)

(* The weight of [evs] active at instant [t]. *)
let active_at profile evs cat t =
  List.fold_left
    (fun n ev ->
      let s, e = interval ev in
      if category ev.fault = cat && s <= t && t < e then
        n + weight profile ev.fault
      else n)
    0 evs

let validate ~profile t =
  let bad fmt = Format.kasprintf Option.some fmt in
  let events = t.events in
  let q = profile.quorum in
  let fk = q.Bft.Quorum.f + q.Bft.Quorum.k in
  let fault_error ev =
    let s, e = interval ev in
    if s < 0 then bad "event at %dus starts before 0" ev.at_us
    else if e > t.horizon_us then
      bad "fault at %dus heals at %dus, after the %dus horizon" ev.at_us e
        t.horizon_us
    else if duration_us ev.fault <= 0 then
      bad "fault at %dus has non-positive duration" ev.at_us
    else
      match ev.fault with
      | Partition_site { site; _ } | Site_kill { site; _ } -> (
        match List.assoc_opt site profile.sites with
        | None -> bad "loss of unknown replica site %d" site
        | Some members when List.length members > fk ->
          bad
            "loss of site %d (%d replicas) exceeds the f+k=%d \
             unavailability budget"
            site (List.length members) fk
        | Some _ -> None)
      (* The predicates [Overlay.Net] applies: NaN fails both. *)
      | Loss_ramp { peak = p; _ } | Wan_loss { loss = p; _ }
        when not (p >= 0. && p < 1.) ->
        bad "loss %g out of [0,1)" p
      | Latency_ramp { peak_factor = x; _ }
      | Message_delay { factor = x; _ }
      | Wan_delay { factor = x; _ }
        when not (Float.is_finite x && x >= 1.) ->
        bad "latency factor %g is not a finite factor >= 1" x
      | _ -> None
  in
  (* Concurrency budgets, sampled at every fault start. *)
  let over (cat, limit, name) =
    List.find_map
      (fun ev ->
        let n = active_at profile events cat ev.at_us in
        if n > limit then
          bad "budget exceeded at %dus: %d concurrent %s" ev.at_us n name
        else None)
      events
  in
  (* A lost site is exclusive with every non-gray fault: isolating or
     killing a tolerated site already consumes the whole unavailability
     budget, and a surviving correct path must remain. *)
  let hard ev =
    match category ev.fault with
    | Byzantine | Down | Link_cut -> true
    | Gray | Partition -> false
  in
  let site_loss_clash p =
    if
      category p.fault = Partition
      && List.exists (fun h -> hard h && overlaps (interval p) (interval h)) events
    then
      bad
        "site loss at %dus overlaps a Byzantine/down/link fault: the \
         combination exceeds the tolerated simultaneous-fault budget"
        p.at_us
    else None
  in
  (* No two concurrent faults may share a target resource. *)
  let rec shared = function
    | [] -> None
    | ev :: rest -> (
      let tv = targets profile ev.fault in
      let conflict other =
        overlaps (interval ev) (interval other)
        && List.exists (fun tg -> List.mem tg (targets profile other.fault)) tv
      in
      match List.find_opt conflict rest with
      | Some other ->
        bad "faults at %dus and %dus target the same resource" ev.at_us
          other.at_us
      | None -> shared rest)
  in
  List.find_map
    (fun check -> check ())
    [
      (fun () -> List.find_map fault_error events);
      (fun () ->
        List.find_map over
          [
            (Byzantine, q.Bft.Quorum.f, "Byzantine replicas");
            (Down, q.Bft.Quorum.k, "down/recovering replicas");
            (Link_cut, max_link_cuts, "severed links");
            (Gray, max_gray, "gray failures");
            (Partition, 1, "site partitions");
          ]);
      (fun () -> List.find_map site_loss_clash events);
      (fun () -> shared events);
    ]
  |> Option.fold ~none:(Ok ()) ~some:Result.error

(* ------------------------------------------------------------------ *)
(* Pretty printing: a schedule must be readable in a failure report.   *)

let pp_fault ppf = function
  | Link_flap { a; b; down_us } ->
    Format.fprintf ppf "link-flap %d-%d down %dms" a b (down_us / 1000)
  | Daemon_churn { replica; down_us } ->
    Format.fprintf ppf "daemon-churn replica %d down %dms" replica
      (down_us / 1000)
  | Partition_site { site; heal_after_us } ->
    Format.fprintf ppf "partition site %d heal after %dms" site
      (heal_after_us / 1000)
  | Loss_ramp { a; b; peak; ramp_us; hold_us } ->
    Format.fprintf ppf "loss-ramp %d-%d to %.0f%% over %dms hold %dms" a b
      (100. *. peak) (ramp_us / 1000) (hold_us / 1000)
  | Latency_ramp { a; b; peak_factor; ramp_us; hold_us } ->
    Format.fprintf ppf "latency-ramp %d-%d to %.1fx over %dms hold %dms" a b
      peak_factor (ramp_us / 1000) (hold_us / 1000)
  | Crash_restart { replica; down_us } ->
    Format.fprintf ppf "crash-restart replica %d down %dms" replica
      (down_us / 1000)
  | Silence { replica; duration_us } ->
    Format.fprintf ppf "silence replica %d for %dms" replica
      (duration_us / 1000)
  | Clock_skew { replica; delay_us; duration_us } ->
    Format.fprintf ppf "clock-skew replica %d +%dms for %dms" replica
      (delay_us / 1000) (duration_us / 1000)
  | Message_delay { replica; factor; duration_us } ->
    Format.fprintf ppf "message-delay replica %d %.1fx for %dms" replica factor
      (duration_us / 1000)
  | Leader_delay { delay_us; duration_us } ->
    Format.fprintf ppf "leader-delay +%dms for %dms" (delay_us / 1000)
      (duration_us / 1000)
  | Wan_delay { factor; duration_us } ->
    Format.fprintf ppf "wan-delay primary links %.1fx for %dms" factor
      (duration_us / 1000)
  | Wan_loss { loss; duration_us } ->
    Format.fprintf ppf "wan-loss %.0f%% for %dms" (100. *. loss)
      (duration_us / 1000)
  | Site_kill { site; down_us } ->
    Format.fprintf ppf "kill site %d down %dms" site (down_us / 1000)

let pp ppf t =
  Format.fprintf ppf "@[<v>chaos schedule (horizon %dms, %d faults):"
    (t.horizon_us / 1000)
    (List.length t.events);
  List.iter
    (fun ev ->
      Format.fprintf ppf "@,  t=%6dms  %a" (ev.at_us / 1000) pp_fault ev.fault)
    t.events;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Generator: random-but-reproducible schedules within a budget.       *)

let generate ~profile ~seed ~horizon_us =
  let rng = Sim.Rng.create seed in
  let replicas = Array.init profile.n Fun.id in
  let wan = Array.of_list profile.wan_links in
  let partitionable =
    List.filter
      (fun (_, members) ->
        List.length members
        <= profile.quorum.Bft.Quorum.f + profile.quorum.Bft.Quorum.k)
      profile.sites
    |> Array.of_list
  in
  let range lo hi = lo + Sim.Rng.int rng (max 1 (hi - lo)) in
  let sample_fault () =
    match Sim.Rng.int rng 9 with
    | 0 when Array.length wan > 0 ->
      let a, b = Sim.Rng.pick rng wan in
      Some (Link_flap { a; b; down_us = range 200_000 1_000_000 })
    | 1 ->
      Some
        (Daemon_churn
           {
             replica = Sim.Rng.pick rng replicas;
             down_us = range 200_000 800_000;
           })
    | 2 when Array.length partitionable > 0 ->
      let site, _ = Sim.Rng.pick rng partitionable in
      Some (Partition_site { site; heal_after_us = range 300_000 1_000_000 })
    | 3 when Array.length wan > 0 ->
      let a, b = Sim.Rng.pick rng wan in
      Some
        (Loss_ramp
           {
             a;
             b;
             peak = 0.05 +. Sim.Rng.float rng 0.25;
             ramp_us = range 200_000 500_000;
             hold_us = range 200_000 1_000_000;
           })
    | 4 when Array.length wan > 0 ->
      let a, b = Sim.Rng.pick rng wan in
      Some
        (Latency_ramp
           {
             a;
             b;
             peak_factor = 2. +. Sim.Rng.float rng 8.;
             ramp_us = range 200_000 500_000;
             hold_us = range 200_000 1_000_000;
           })
    | 5 ->
      Some
        (Crash_restart
           {
             replica = Sim.Rng.pick rng replicas;
             down_us = range 300_000 1_000_000;
           })
    | 6 ->
      Some
        (Silence
           {
             replica = Sim.Rng.pick rng replicas;
             duration_us = range 300_000 1_000_000;
           })
    | 7 ->
      Some
        (Clock_skew
           {
             replica = Sim.Rng.pick rng replicas;
             delay_us = range 50_000 300_000;
             duration_us = range 300_000 1_000_000;
           })
    | _ ->
      Some
        (Message_delay
           {
             replica = Sim.Rng.pick rng replicas;
             factor = 2. +. Sim.Rng.float rng 6.;
             duration_us = range 300_000 1_000_000;
           })
  in
  let desired = 3 + Sim.Rng.int rng 5 in
  let events = ref [] in
  let attempts = ref (desired * 8) in
  while List.length !events < desired && !attempts > 0 do
    decr attempts;
    match sample_fault () with
    | None -> ()
    | Some fault ->
      let dur = duration_us fault in
      if dur < horizon_us then begin
        let at_us = Sim.Rng.int rng (horizon_us - dur) in
        let candidate = { horizon_us; events = { at_us; fault } :: !events } in
        match validate ~profile candidate with
        | Ok () -> events := candidate.events
        | Error _ -> ()
      end
  done;
  {
    horizon_us;
    events = List.sort (fun a b -> compare a.at_us b.at_us) !events;
  }
