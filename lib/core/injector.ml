open Attack.Schedule

let profile_of_system sys =
  let n = System.replica_count sys in
  let replicas = List.init n Fun.id in
  let site = System.site_of_replica sys in
  let sites =
    List.map
      (fun s -> (s, List.filter (fun r -> site r = s) replicas))
      (List.sort_uniq compare (List.map site replicas))
  in
  let topo = Overlay.Net.topology (System.net sys) in
  let wan_links =
    List.filter_map
      (fun { Overlay.Topology.endpoint_a = a; endpoint_b = b; _ } ->
        let site_of = Overlay.Topology.site_of topo in
        if a < n && b < n && site_of a <> site_of b then Some (a, b) else None)
      (Overlay.Topology.links topo)
  in
  { n; quorum = (System.config sys).System.quorum; sites; wan_links }

let set_latency sys links x =
  List.iter (fun (a, b) -> Overlay.Net.set_latency_factor (System.net sys) a b x) links

let set_loss sys links p =
  List.iter (fun (a, b) -> Overlay.Net.set_loss_probability (System.net sys) a b p) links

(* [switch sys on fault] starts ([on]) or heals a resolved fault. *)
let switch sys on fault =
  let net = System.net sys in
  let faults r = System.faults sys r in
  match fault with
  | Link_flap { a; b; _ } ->
    (if on then Overlay.Net.kill_link else Overlay.Net.restore_link) net a b
  | Daemon_churn { replica; _ } ->
    (if on then Overlay.Net.kill_node else Overlay.Net.restore_node)
      net (System.node_of_replica sys replica)
  | Partition_site { site; _ } ->
    (if on then System.isolate_site else System.reconnect_site) sys site
  | Loss_ramp { a; b; peak; _ } -> set_loss sys [ (a, b) ] (if on then peak else 0.)
  | Latency_ramp { a; b; peak_factor; _ } ->
    set_latency sys [ (a, b) ] (if on then peak_factor else 1.)
  | Crash_restart { replica; _ } ->
    (if on then System.crash_replica else System.restore_replica) sys replica
  | Silence { replica; _ } -> (faults replica).Bft.Faults.silent <- on
  | Clock_skew { replica; delay_us; _ } ->
    (faults replica).Bft.Faults.proposal_delay_us <- (if on then delay_us else 0)
  | Message_delay { replica; factor; _ } ->
    let node = System.node_of_replica sys replica in
    let links = Overlay.Topology.neighbors (Overlay.Net.topology net) node in
    set_latency sys (List.map (fun w -> (node, w)) links) (if on then factor else 1.)
  | Leader_delay _ ->
    invalid_arg "Injector.heal: heal the fault that Injector.start returned"
  | Wan_delay { factor; _ } ->
    set_latency sys (primary_links (profile_of_system sys)) (if on then factor else 1.)
  | Wan_loss { loss; _ } ->
    set_loss sys (profile_of_system sys).wan_links (if on then loss else 0.)
  | Site_kill { site; _ } ->
    List.iter
      ((if on then System.crash_replica else System.restore_replica) sys)
      (System.replicas_in_site sys site)

let start sys fault =
  let fault =
    match fault with
    | Leader_delay { delay_us; duration_us } ->
      Clock_skew { replica = System.current_leader sys; delay_us; duration_us }
    | fault -> fault
  in
  switch sys true fault;
  fault

let heal sys fault = switch sys false fault

let ramp_steps = 4

(* Step [i] of [ramp_steps] on the way to a ramp's peak. *)
let ramp_step fault i =
  let frac = float_of_int i /. float_of_int ramp_steps in
  match fault with
  | Loss_ramp r -> Loss_ramp { r with peak = r.peak *. frac }
  | Latency_ramp r ->
    Latency_ramp { r with peak_factor = 1. +. ((r.peak_factor -. 1.) *. frac) }
  | fault -> fault

let apply sys ~offset_us schedule =
  let engine = System.engine sys in
  let at time_us f =
    if time_us <= Sim.Engine.now engine then f ()
    else ignore (Sim.Engine.schedule_at engine ~time_us f : Sim.Engine.timer)
  in
  List.iter
    (fun { at_us; fault } ->
      let start_us = offset_us + at_us in
      let live = ref fault in
      (match fault with
      | Loss_ramp { ramp_us; _ } | Latency_ramp { ramp_us; _ } ->
        for i = 1 to ramp_steps do
          at
            (start_us + (i * ramp_us / ramp_steps))
            (fun () -> switch sys true (ramp_step fault i))
        done
      | _ -> at start_us (fun () -> live := start sys fault));
      at (start_us + duration_us fault) (fun () -> heal sys !live))
    schedule.events
