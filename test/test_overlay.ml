(* Tests for the intrusion-tolerant overlay: topology, routing, fair
   queueing, and the network runtime. *)

module T = Overlay.Topology
module R = Overlay.Routing
module FQ = Overlay.Fair_queue
module N = Overlay.Net

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_full_mesh () =
  let t = T.full_mesh ~nodes:4 ~latency_us:100 ~bandwidth_bps:1_000_000 in
  Alcotest.(check int) "links" 6 (List.length (T.links t));
  Alcotest.(check (list int)) "neighbors of 0" [ 1; 2; 3 ] (T.neighbors t 0);
  Alcotest.(check bool) "connected" true (T.connected t)

let test_duplicate_link_rejected () =
  let t = T.create ~nodes:3 in
  T.add_link t ~a:0 ~b:1 ~latency_us:10 ~bandwidth_bps:1000;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.add_link: duplicate link") (fun () ->
      T.add_link t ~a:1 ~b:0 ~latency_us:10 ~bandwidth_bps:1000)

let test_self_link_rejected () =
  let t = T.create ~nodes:3 in
  Alcotest.check_raises "self" (Invalid_argument "Topology.add_link: self-link")
    (fun () -> T.add_link t ~a:1 ~b:1 ~latency_us:10 ~bandwidth_bps:1000)

let test_multi_site_structure () =
  let t =
    T.multi_site ~site_sizes:[ 2; 2; 1 ] ~lan_latency_us:50
      ~wan_latency_us:(fun _ _ -> 5_000)
      ~lan_bandwidth_bps:1_000_000 ~wan_bandwidth_bps:100_000 ()
  in
  Alcotest.(check int) "nodes" 5 (T.node_count t);
  Alcotest.(check int) "sites" 3 (T.site_count t);
  Alcotest.(check (list int)) "site 0 members" [ 0; 1 ] (T.nodes_in_site t 0);
  Alcotest.(check (list int)) "site 2 members" [ 4 ] (T.nodes_in_site t 2);
  Alcotest.(check bool) "connected" true (T.connected t);
  (* Redundant WAN links exist between 2-node sites. *)
  Alcotest.(check bool) "redundant wan link" true
    (Option.is_some (T.link_between t 1 3))

let test_east_coast_topology () =
  let t, sites = T.wide_area_east_coast () in
  Alcotest.(check int) "nodes" 10 (T.node_count t);
  Alcotest.(check int) "sites" 4 (List.length sites);
  Alcotest.(check bool) "connected" true (T.connected t);
  let ccs = List.filter (fun (_, k) -> k = `Control_center) sites in
  Alcotest.(check int) "two control centers" 2 (List.length ccs)

(* ------------------------------------------------------------------ *)
(* Routing *)

(* A diamond: 0 - {1 fast, 2 slow} - 3 plus a long direct edge 0-3. *)
let diamond () =
  let t = T.create ~nodes:4 in
  T.add_link t ~a:0 ~b:1 ~latency_us:10 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:1 ~b:3 ~latency_us:10 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:0 ~b:2 ~latency_us:50 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:2 ~b:3 ~latency_us:50 ~bandwidth_bps:1_000_000;
  T.add_link t ~a:0 ~b:3 ~latency_us:500 ~bandwidth_bps:1_000_000;
  t

let all_usable _ _ = true

let test_shortest_path_picks_fast_route () =
  let t = diamond () in
  match R.shortest_path t ~usable:all_usable ~src:0 ~dst:3 with
  | Some path -> Alcotest.(check (list int)) "fast route" [ 0; 1; 3 ] path
  | None -> Alcotest.fail "no path"

let test_shortest_path_avoids_unusable () =
  let t = diamond () in
  let usable a b = not ((a = 0 && b = 1) || (a = 1 && b = 0)) in
  match R.shortest_path t ~usable ~src:0 ~dst:3 with
  | Some path -> Alcotest.(check (list int)) "detour" [ 0; 2; 3 ] path
  | None -> Alcotest.fail "no path"

let test_shortest_path_unreachable () =
  let t = T.create ~nodes:3 in
  T.add_link t ~a:0 ~b:1 ~latency_us:10 ~bandwidth_bps:1000;
  Alcotest.(check bool) "no route" true
    (R.shortest_path t ~usable:all_usable ~src:0 ~dst:2 = None)

let test_path_latency () =
  let t = diamond () in
  Alcotest.(check int) "latency sums" 20 (R.path_latency_us t [ 0; 1; 3 ])

let test_disjoint_paths () =
  let t = diamond () in
  let paths = R.disjoint_paths t ~usable:all_usable ~src:0 ~dst:3 ~k:3 in
  Alcotest.(check int) "three disjoint routes" 3 (List.length paths);
  (* Internal nodes must not repeat across paths. *)
  let internals =
    List.concat_map
      (fun p -> List.filter (fun n -> n <> 0 && n <> 3) p)
      paths
  in
  let dedup = List.sort_uniq compare internals in
  Alcotest.(check int) "internally disjoint" (List.length internals)
    (List.length dedup)

let test_max_disjoint_east_coast () =
  let t, _ = T.wide_area_east_coast () in
  (* First nodes of sites 0 and 1 (0 and 3) have several disjoint
     routes thanks to redundant WAN links. *)
  Alcotest.(check bool) "at least 2 disjoint" true
    (R.max_disjoint t ~src:0 ~dst:3 >= 2)

(* ------------------------------------------------------------------ *)
(* Fair queue *)

let test_fair_queue_priority () =
  let q = FQ.create ~per_source_cap:10 in
  ignore (FQ.push q ~source:1 ~priority:FQ.Bulk "bulk1");
  ignore (FQ.push q ~source:1 ~priority:FQ.Control "ctl1");
  (match FQ.pop q with
  | Some (_, FQ.Control, v) -> Alcotest.(check string) "control first" "ctl1" v
  | _ -> Alcotest.fail "expected control class first");
  match FQ.pop q with
  | Some (_, FQ.Bulk, v) -> Alcotest.(check string) "then bulk" "bulk1" v
  | _ -> Alcotest.fail "expected bulk"

let test_fair_queue_round_robin () =
  let q = FQ.create ~per_source_cap:10 in
  (* Source 1 floods; source 2 sends one item. *)
  for i = 1 to 5 do
    ignore (FQ.push q ~source:1 ~priority:FQ.Control (Printf.sprintf "a%d" i))
  done;
  ignore (FQ.push q ~source:2 ~priority:FQ.Control "b1");
  (* Service order must alternate: a1 then b1 (fair share), not a1..a5. *)
  let first = FQ.pop q and second = FQ.pop q in
  (match first with
  | Some (1, _, "a1") -> ()
  | _ -> Alcotest.fail "expected a1 first");
  match second with
  | Some (2, _, "b1") -> ()
  | _ -> Alcotest.fail "expected b1 second (fairness)"

let test_fair_queue_cap_drops () =
  let q = FQ.create ~per_source_cap:3 in
  let accepted = ref 0 in
  for i = 1 to 10 do
    if FQ.push q ~source:7 ~priority:FQ.Bulk i then incr accepted
  done;
  Alcotest.(check int) "cap respected" 3 !accepted;
  Alcotest.(check int) "drops counted" 7 (FQ.dropped q);
  Alcotest.(check int) "backlog" 3 (FQ.backlog_of q ~source:7 ~priority:FQ.Bulk)

let prop_fair_queue_conserves_items =
  QCheck.Test.make ~name:"fair queue: popped = pushed (under cap)"
    QCheck.(list (pair (int_bound 4) (int_bound 100)))
    (fun pushes ->
      QCheck.assume (List.length pushes <= 32);
      let q = FQ.create ~per_source_cap:1000 in
      List.iter
        (fun (source, v) ->
          ignore (FQ.push q ~source ~priority:FQ.Control v))
        pushes;
      let rec drain acc =
        match FQ.pop q with None -> acc | Some _ -> drain (acc + 1)
      in
      drain 0 = List.length pushes)

(* Exact round-robin order: a source re-enters the rotation behind
   every other backlogged source after being served. Regression for the
   O(1) ring rotation — the order must match the list-rotation
   semantics it replaced. *)
let test_fair_queue_exact_rotation () =
  let q = FQ.create ~per_source_cap:10 in
  List.iter
    (fun (s, v) -> ignore (FQ.push q ~source:s ~priority:FQ.Control v))
    [ (1, "a1"); (2, "b1"); (3, "c1"); (1, "a2"); (3, "c2"); (3, "c3") ];
  let rec drain acc =
    match FQ.pop q with
    | Some (_, _, v) -> drain (v :: acc)
    | None -> List.rev acc
  in
  Alcotest.(check (list string))
    "round-robin service order"
    [ "a1"; "b1"; "c1"; "a2"; "c2"; "c3" ]
    (drain [])

(* Reference model: per-source FIFOs with the rotation kept as a plain
   list rotated with [rest @ [src]]. Arbitrary interleaving of pushes
   and pops must give the ring implementation the same observable
   behaviour (accepted pushes and popped values alike). *)
(* Model: per class, per-source FIFOs plus a list rotation; Control is
   always served before Bulk. Steps mix both classes and both dequeues
   ([pop] and the allocation-free [take]), so class order and rotation
   are checked on the path the overlay actually uses. *)
(* Sources mix a dense low range with sparse ids far above it, so the
   per-source array grows while backlogs are queued. *)
let fq_source = QCheck.(oneof [ int_bound 5; int_range 60 300 ])

let prop_fair_queue_matches_list_model =
  QCheck.Test.make ~count:300 ~name:"fair queue: ring matches list-rotation model"
    QCheck.(
      list
        (pair (int_bound 3) (* push Control / push Bulk / pop / take *)
           (pair fq_source (int_bound 1000))))
    (fun steps ->
      let cap = 3 in
      let q = FQ.create ~per_source_cap:cap in
      let model_class () = (Hashtbl.create 7, ref []) in
      let control = model_class () and bulk = model_class () in
      let model_q (queues, _) src =
        match Hashtbl.find_opt queues src with
        | Some mq -> mq
        | None ->
          let mq = Queue.create () in
          Hashtbl.add queues src mq;
          mq
      in
      let model_push ((_, rotation) as cls) src v =
        let mq = model_q cls src in
        if Queue.length mq >= cap then false
        else begin
          if Queue.is_empty mq then rotation := !rotation @ [ src ];
          Queue.push v mq;
          true
        end
      in
      let model_pop_class ((_, rotation) as cls) =
        match !rotation with
        | [] -> None
        | src :: rest ->
          let mq = model_q cls src in
          let v = Queue.pop mq in
          rotation := if Queue.is_empty mq then rest else rest @ [ src ];
          Some (src, v)
      in
      let model_pop () =
        match model_pop_class control with
        | Some (src, v) -> Some (src, FQ.Control, v)
        | None -> (
          match model_pop_class bulk with
          | Some (src, v) -> Some (src, FQ.Bulk, v)
          | None -> None)
      in
      List.for_all
        (fun (op, (src, v)) ->
          match op with
          | 0 ->
            FQ.push q ~source:src ~priority:FQ.Control v
            = model_push control src v
          | 1 ->
            FQ.push q ~source:src ~priority:FQ.Bulk v = model_push bulk src v
          | 2 -> FQ.pop q = model_pop ()
          | _ -> (
            match model_pop () with
            | Some (_, _, v') -> FQ.take q = v'
            | None -> (
              FQ.is_empty q
              &&
              match FQ.take q with
              | _ -> false
              | exception Invalid_argument _ -> true)))
        steps
      && FQ.is_empty q = (model_pop () = None))

(* Per-source backlogs are indexed by source id, so a negative id is
   refused outright: nothing is queued and nothing counts as dropped. *)
let test_fair_queue_rejects_negative_source () =
  let q = FQ.create ~per_source_cap:4 in
  ignore (FQ.push q ~source:2 ~priority:FQ.Control "kept");
  Alcotest.check_raises "negative source"
    (Invalid_argument "Fair_queue.push: source < 0") (fun () ->
      ignore (FQ.push q ~source:(-1) ~priority:FQ.Bulk "bad"));
  Alcotest.(check int) "nothing queued" 1 (FQ.length q);
  Alcotest.(check int) "no drop counted" 0 (FQ.dropped q);
  Alcotest.(check int) "negative backlog reads 0" 0
    (FQ.backlog_of q ~source:(-1) ~priority:FQ.Bulk);
  Alcotest.(check (option (triple int pass string)))
    "queue intact" (Some (2, FQ.Control, "kept")) (FQ.pop q)

(* The rotation ring starts at capacity 16; exceed it to cover growth. *)
let test_fair_queue_many_sources () =
  let q = FQ.create ~per_source_cap:4 in
  for s = 0 to 99 do
    ignore (FQ.push q ~source:s ~priority:FQ.Bulk s)
  done;
  let order = ref [] in
  let rec drain () =
    match FQ.pop q with
    | Some (s, _, _) ->
      order := s :: !order;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "one pass, push order" (List.init 100 Fun.id)
    (List.rev !order);
  Alcotest.(check bool) "empty after drain" true (FQ.is_empty q)

(* ------------------------------------------------------------------ *)
(* Net runtime *)

type net_msg = Ping of int

let make_net ?(per_source_cap = 64) topo =
  let engine = Sim.Engine.create ~seed:7L () in
  let net : net_msg N.t = N.create ~per_source_cap engine topo () in
  (engine, net)

let test_net_unicast_latency () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref [] in
  N.set_handler net 3 (fun d -> received := d :: !received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  match !received with
  | [ d ] ->
    Alcotest.(check int) "hops" 2 d.N.hops;
    (* 2 hops x 10us latency + 2 x ~transmission. *)
    Alcotest.(check bool) "latency sane" true
      (d.N.delivered_us - d.N.sent_us >= 20
      && d.N.delivered_us - d.N.sent_us < 1_000)
  | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l)

(* The directed links that carried traffic so far, ascending. *)
let links_used net =
  List.sort compare
    (List.map (fun r -> (r.N.link_src, r.N.link_dst)) (N.link_reports net))

let test_net_reroutes_after_link_kill () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.kill_link net 0 1;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "delivered via detour" 1 !received;
  Alcotest.(check (list (pair int int))) "route avoids dead link"
    [ (0, 2); (2, 3) ]
    (links_used net)

let test_net_redundant_survives_path_kill_in_flight () =
  (* With redundant dissemination, killing one path right after send
     still delivers via the others. *)
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:(N.Redundant 3) (Ping 1);
  (* Kill the fastest path's middle node before anything propagates. *)
  N.kill_node net 1;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "exactly one delivery" 1 !received

let test_net_redundant_dedups () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:(N.Redundant 3) (Ping 9);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "one delivery despite 3 copies" 1 !received;
  let stats = N.stats net in
  Alcotest.(check bool) "duplicates suppressed" true
    (stats.N.duplicates_suppressed >= 1)

let test_net_flood_reaches_all () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 9 (fun _ -> incr received);
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Flood (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "flood delivers once" 1 !received

(* Every flooded copy shares one frame record; the reported hop count
   must still be the delivered copy's own path length, not a tally of
   every arriving copy. Triangle 0-1 (1 ms), 0-2 (direct), 1-2 (10 ms),
   flooded 0 -> 2: a 5 ms direct link wins with one hop (the relayed
   copy arrives later and is suppressed); a 50 ms one loses to the
   two-hop relay. *)
let test_net_flood_hops_of_delivered_copy () =
  List.iter
    (fun (direct_us, expect_at, expect_hops) ->
      let topo = T.create ~nodes:3 in
      let link a b latency_us =
        T.add_link topo ~a ~b ~latency_us ~bandwidth_bps:1_000_000_000
      in
      link 0 1 1_000;
      link 0 2 direct_us;
      link 1 2 10_000;
      let engine, net = make_net topo in
      let received = ref [] in
      N.set_handler net 2 (fun d -> received := d :: !received);
      N.send net ~src:0 ~dst:2 ~size_bytes:100 ~mode:N.Flood (Ping 1);
      Sim.Engine.run_until_quiescent engine;
      match !received with
      | [ d ] ->
        Alcotest.(check int) "delivered at" expect_at d.N.delivered_us;
        Alcotest.(check int) "hops of the delivered copy" expect_hops d.N.hops
      | l -> Alcotest.failf "expected 1 delivery, got %d" (List.length l))
    [ (5_000, 5_001, 1); (50_000, 11_002, 2) ]

(* Flooded duplicates are dropped at the per-node seen check, before
   [deliver]; they must still be counted. Full mesh of 4, flood 0 -> 3:
   0 sends 3 copies, each of 1, 2, 3 forwards its first copy to the two
   nodes other than 0 — 9 copies for 3 first arrivals, 6 duplicates. *)
let test_net_flood_counts_duplicates () =
  let topo = T.full_mesh ~nodes:4 ~latency_us:100 ~bandwidth_bps:1_000_000 in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:100 ~mode:N.Flood (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "delivered once" 1 !received;
  Alcotest.(check int) "duplicates suppressed" 6
    (N.stats net).N.duplicates_suppressed

let test_net_flood_survives_heavy_link_loss () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 9 (fun _ -> incr received);
  (* Kill several WAN links; flooding still finds a way while the graph
     stays connected. *)
  N.kill_link net 0 3;
  N.kill_link net 0 6;
  N.kill_link net 0 8;
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Flood (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "delivered" 1 !received

let test_net_node_down_no_delivery () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.kill_node net 3;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "nothing delivered" 0 !received

(* Node faults name a node of the topology; any other id is refused
   with the operation's name, as a missing link is, also when its
   endpoints are no nodes. *)
let test_net_node_ops_reject_unknown_node () =
  let _, net = make_net (diamond ()) in
  List.iter
    (fun n ->
      Alcotest.check_raises "kill_node"
        (Invalid_argument "Net.kill_node: no such node") (fun () ->
          N.kill_node net n);
      Alcotest.check_raises "restore_node"
        (Invalid_argument "Net.restore_node: no such node") (fun () ->
          N.restore_node net n);
      Alcotest.check_raises "node_alive"
        (Invalid_argument "Net.node_alive: no such node") (fun () ->
          ignore (N.node_alive net n : bool));
      Alcotest.check_raises "kill_link"
        (Invalid_argument "Net.kill_link: no such link") (fun () ->
          N.kill_link net 0 n))
    [ -1; 4 ]

let test_net_junk_does_not_reach_handlers () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.inject_junk_bytes net ~src:0 ~dst:3 ~bytes:(String.make 10_000 '\000')
    ~priority:FQ.Bulk;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "junk invisible" 0 !received;
  Alcotest.(check int) "junk counted" 1 (N.stats net).N.junk_frames

let test_net_control_priority_beats_junk_flood () =
  (* A bulk-class junk flood on the direct link must not starve control
     traffic: control jumps the queue. *)
  let t = T.create ~nodes:2 in
  (* Slow link so that queueing matters: 10 KB/s. *)
  T.add_link t ~a:0 ~b:1 ~latency_us:100 ~bandwidth_bps:10_000;
  let engine, net = make_net t in
  let delivered_at = ref (-1) in
  N.set_handler net 1 (fun d -> delivered_at := d.N.delivered_us);
  (* 50 junk frames of 1000 bytes: 100ms of serialisation each. *)
  for _ = 1 to 50 do
    N.inject_junk_bytes net ~src:0 ~dst:1 ~bytes:(String.make 1_000 '\000')
      ~priority:FQ.Bulk
  done;
  N.send net ~src:0 ~dst:1 ~size_bytes:100 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  (* The control frame waits at most for the junk frame already being
     transmitted (~100ms), never the whole backlog (~5s). *)
  Alcotest.(check bool) "delivered" true (!delivered_at >= 0);
  Alcotest.(check bool) "control jumped the queue" true (!delivered_at < 350_000)

let test_net_latency_factor () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  let lat = ref 0 in
  N.set_handler net 1 (fun d -> lat := d.N.delivered_us - d.N.sent_us);
  N.set_latency_factor net 0 1 10.;
  N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "10x latency" true (!lat >= 10_000)

let test_net_lossy_link_arq_recovers () =
  (* 30% loss: hop-by-hop ARQ retransmits and every frame arrives. *)
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_loss_probability net 0 1 0.3;
  let received = ref 0 in
  N.set_handler net 1 (fun _ -> incr received);
  for i = 1 to 100 do
    ignore
      (Sim.Engine.schedule_at engine ~time_us:(i * 50_000) (fun () ->
           N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping i))
        : Sim.Engine.timer)
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "all delivered despite loss" 100 !received;
  Alcotest.(check bool) "retransmissions happened" true
    (N.retransmissions net > 10)

let test_net_loss_probability_validation () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let _, net = make_net t in
  Alcotest.check_raises "p = 1 rejected"
    (Invalid_argument "Net.set_loss_probability: need 0 <= p < 1") (fun () ->
      N.set_loss_probability net 0 1 1.0);
  (* NaN fails every comparison, so a range check written as two
     rejecting comparisons would take it as "no loss". *)
  Alcotest.check_raises "p = nan rejected"
    (Invalid_argument "Net.set_loss_probability: need 0 <= p < 1") (fun () ->
      N.set_loss_probability net 0 1 Float.nan)

(* A factor that is not finite, or that scales the latency to
   [max_int] or beyond, converts to an unspecified int (0 on x86-64): the link
   would propagate instantly. Each is refused and leaves the link as
   it was. *)
let test_net_latency_factor_validation () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  let not_finite = Invalid_argument "Net.set_latency_factor: factor not finite" in
  Alcotest.check_raises "nan" not_finite (fun () ->
      N.set_latency_factor net 0 1 Float.nan);
  Alcotest.check_raises "infinity" not_finite (fun () ->
      N.set_latency_factor net 0 1 Float.infinity);
  Alcotest.check_raises "neg_infinity" not_finite (fun () ->
      N.set_latency_factor net 0 1 Float.neg_infinity);
  Alcotest.check_raises "1e300 overflows"
    (Invalid_argument "Net.set_latency_factor: scaled latency overflows int")
    (fun () -> N.set_latency_factor net 0 1 1e300);
  Alcotest.check_raises "below 1"
    (Invalid_argument "Net.set_latency_factor: factor < 1") (fun () ->
      N.set_latency_factor net 0 1 0.5);
  let lat = ref 0 in
  N.set_handler net 1 (fun d -> lat := d.N.delivered_us - d.N.sent_us);
  N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  (* 256 us to serialise, then the unscaled 1 ms. *)
  Alcotest.(check int) "latency unchanged" 1_256 !lat

let test_net_loss_adds_latency_not_loss () =
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:2_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_loss_probability net 0 1 0.5;
  let latencies = ref [] in
  N.set_handler net 1 (fun d ->
      latencies := (d.N.delivered_us - d.N.sent_us) :: !latencies);
  for i = 1 to 50 do
    ignore
      (Sim.Engine.schedule_at engine ~time_us:(i * 100_000) (fun () ->
           N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping i)))
  done;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "all delivered" 50 (List.length !latencies);
  (* Some frames needed retries: their latency includes ARQ round trips. *)
  Alcotest.(check bool) "some retried frames are slower" true
    (List.exists (fun l -> l >= 6_000) !latencies)

let test_net_arq_exhaustion_counted_not_wedged () =
  (* Loss so high that some frames exhaust all 8 retransmission
     attempts: the drops must surface in stats (not vanish silently)
     and the link's fair queue must keep draining afterwards. *)
  let t = T.create ~nodes:2 in
  T.add_link t ~a:0 ~b:1 ~latency_us:1_000 ~bandwidth_bps:1_000_000;
  let engine, net = make_net t in
  N.set_loss_probability net 0 1 0.95;
  let received = ref 0 in
  N.set_handler net 1 (fun _ -> incr received);
  for i = 1 to 40 do
    ignore
      (Sim.Engine.schedule_at engine ~time_us:(i * 100_000) (fun () ->
           N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping i))
        : Sim.Engine.timer)
  done;
  Sim.Engine.run_until_quiescent engine;
  let s = N.stats net in
  (* With p=0.95 each frame survives its 9 transmissions with
     probability 1 - 0.95^9 ~ 0.37; both outcomes occur in 40 frames. *)
  Alcotest.(check bool) "some frames exhausted ARQ" true
    (s.N.dropped_arq_exhausted > 0);
  Alcotest.(check int) "every submitted frame accounted for" 40
    (!received + s.N.dropped_arq_exhausted);
  (* The queue is not wedged: after the loss clears, traffic flows. *)
  N.set_loss_probability net 0 1 0.0;
  N.send net ~src:0 ~dst:1 ~size_bytes:256 ~mode:N.Shortest (Ping 0);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check bool) "link usable after exhaustion" true
    (!received > 0 && (N.stats net).N.delivered = !received)

let test_net_retired_src_dropped () =
  (* A retired (removed-from-membership) node keeps babbling: its
     frames must be counted and dropped, not delivered — whether
     submitted after retirement or already in flight when it lands.
     Re-admission restores delivery. *)
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "baseline delivery" 1 !received;
  N.retire_node net 0;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 2);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:(N.Redundant 3) (Ping 3);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "retired frames not delivered" 1 !received;
  Alcotest.(check bool) "drops counted" true
    ((N.stats net).N.dropped_retired_src >= 2);
  (* In flight at retirement time: submitted while admissible, retired
     before delivery. *)
  N.unretire_node net 0;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 4);
  N.retire_node net 0;
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "in-flight frame dropped" 1 !received;
  (* Retirement is about the source id, not liveness: a retired node
     still forwards other nodes' traffic through itself. *)
  N.kill_link net 0 2;
  N.retire_node net 1;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 5);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "frame dropped while src retired" 1 !received;
  N.unretire_node net 0;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 6);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "re-admitted src via retired forwarder" 2 !received;
  (* Unknown source ids (spoofed frames from outside the membership
     universe) are counted and dropped too, and never crash the
     runtime; retiring an out-of-range id is a no-op. *)
  N.retire_node net 99;
  N.retire_node net (-1);
  let before = (N.stats net).N.dropped_retired_src in
  N.send net ~src:42 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 7);
  N.send net ~src:(-3) ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 8);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "unknown src never delivered" 2 !received;
  Alcotest.(check int) "unknown src counted" (before + 2)
    (N.stats net).N.dropped_retired_src

let test_net_self_send () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 0 (fun _ -> incr received);
  N.send net ~src:0 ~dst:0 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "self delivery" 1 !received

(* ------------------------------------------------------------------ *)
(* Mid-run dissemination-mode switches (the runtime tuning plane's
   overlay contract) *)

(* Flip Shortest -> Flood -> Redundant 2 while the previous phase's
   frames are still in flight (sends are spaced 200us; the 0->9 route
   crosses several WAN hops of >= 1ms each). Contract: every frame is
   delivered exactly once — dedup absorbs the redundant copies — none
   is dropped for lack of a route, and the route caches survive being
   invalidated at each switch, exactly as [System.set_dissemination]
   does. *)
let test_net_mode_switch_under_load () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net ~per_source_cap:1024 topo in
  let got : (int, int) Hashtbl.t = Hashtbl.create 256 in
  N.set_handler net 9 (fun d ->
      let (Ping i) = d.N.payload in
      Hashtbl.replace got i
        (1 + Option.value ~default:0 (Hashtbl.find_opt got i)));
  let per_phase = 40 in
  List.iter
    (fun (p, mode) ->
      if p > 0 then
        ignore
          (Sim.Engine.schedule_at engine ~time_us:(p * per_phase * 200)
             (fun () -> N.invalidate_routes net)
            : Sim.Engine.timer);
      for i = 0 to per_phase - 1 do
        let id = (p * per_phase) + i in
        ignore
          (Sim.Engine.schedule_at engine
             ~time_us:((id * 200) + 1)
             (fun () ->
               N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode (Ping id))
            : Sim.Engine.timer)
      done)
    [ (0, N.Shortest); (1, N.Flood); (2, N.Redundant 2) ];
  Sim.Engine.run_until_quiescent engine;
  let total = 3 * per_phase in
  let missing = ref 0 and dup = ref 0 in
  for id = 0 to total - 1 do
    match Hashtbl.find_opt got id with
    | None -> incr missing
    | Some 1 -> ()
    | Some _ -> incr dup
  done;
  Alcotest.(check int) "no frame lost across switches" 0 !missing;
  Alcotest.(check int) "no duplicate delivery" 0 !dup;
  let s = N.stats net in
  Alcotest.(check bool) "redundant copies suppressed, not delivered" true
    (s.N.duplicates_suppressed > 0);
  Alcotest.(check int) "never dropped for lack of a route" 0
    s.N.dropped_no_route;
  Alcotest.(check int) "per-source cap never hit" 0 s.N.dropped_queue_full

(* Invalidation is harmless by construction: recomputation from the
   unchanged topology yields the same route, so a mode switch can never
   change where Shortest frames go. *)
let test_net_invalidate_routes_recomputes_same () =
  let topo = diamond () in
  let engine, net = make_net topo in
  let received = ref 0 in
  N.set_handler net 3 (fun _ -> incr received);
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  let before = links_used net in
  N.invalidate_routes net;
  N.send net ~src:0 ~dst:3 ~size_bytes:256 ~mode:N.Shortest (Ping 2);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check (list (pair int int))) "same route after invalidation"
    before (links_used net);
  Alcotest.(check int) "delivery unaffected" 2 !received

(* An in-flight frame keeps the route captured at submit: invalidating
   the caches immediately after send (what a mode switch does) neither
   loses nor duplicates it. *)
let test_net_switch_preserves_in_flight () =
  let topo, _ = T.wide_area_east_coast () in
  let engine, net = make_net topo in
  let deliveries = ref 0 in
  N.set_handler net 9 (fun _ -> incr deliveries);
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Shortest (Ping 1);
  N.invalidate_routes net;
  N.send net ~src:0 ~dst:9 ~size_bytes:256 ~mode:N.Flood (Ping 2);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "both frames delivered exactly once" 2 !deliveries;
  Alcotest.(check int) "no route drops" 0 (N.stats net).N.dropped_no_route

(* ------------------------------------------------------------------ *)
(* Flood counters under faults, sampled mid-flight *)

(* 300 floods over the east-coast topology, with copies in flight while
   links and nodes die and come back. The 0-3 link runs 20x slow until
   25 ms, so its queue of in-flight copies is long and, once restored,
   no longer in arrival order. Faults come up front, from delivery
   handlers, from a callback that schedules one, and from outside any
   callback between runs. Two kills land on the exact microsecond of a
   duplicate copy's arrival, each copy sent to a node that already held
   its frame: 0-3 at 27,129 us, scheduled before the 3 -> 0 copy left
   (the kill comes first, so the copy is lost), and 0-8 at 21,247 us,
   scheduled after the 8 -> 0 copy left (it arrives first, as a
   duplicate). [Net.stats] is sampled inside callbacks, between runs
   and after quiescence, with the clock; every sample, and so the
   digest of the whole trace, is pinned. *)
let flood_fault_trace () =
  let topo, _ = T.wide_area_east_coast () in
  let engine = Sim.Engine.create ~seed:42L () in
  let net : net_msg N.t = N.create engine topo () in
  let buf = Buffer.create 4096 in
  let samples = ref 0 in
  let sample label =
    incr samples;
    let s = N.stats net in
    Printf.bprintf buf "%s@%d:%d/%d/%d/%d/%d/%d\n" label (Sim.Engine.now engine)
      s.N.delivered s.N.duplicates_suppressed s.N.dropped_link_down
      s.N.dropped_queue_full s.N.dropped_bytes s.N.submitted
  in
  let at time f =
    ignore (Sim.Engine.schedule_at engine ~time_us:time f : Sim.Engine.timer)
  in
  let after delay_us f =
    ignore (Sim.Engine.schedule engine ~delay_us f : Sim.Engine.timer)
  in
  N.set_latency_factor net 0 3 20.0;
  let delivered_at_9 = ref 0 in
  N.set_handler net 9 (fun _ ->
      incr delivered_at_9;
      if !delivered_at_9 mod 5 = 0 then sample "h9";
      if !delivered_at_9 = 7 then begin
        N.kill_link net 7 9;
        sample "h9k";
        after 2_000 (fun () ->
            N.restore_link net 7 9;
            sample "h9r")
      end);
  for i = 0 to 299 do
    let src = i * 3 mod 10 in
    let dst = ((i * 7) + 1) mod 10 in
    let dst = if dst = src then (dst + 1) mod 10 else dst in
    at ((i * 100) + 1) (fun () ->
        N.send net ~src ~dst ~size_bytes:(100 + (i * 137 mod 1400)) ~mode:N.Flood
          (Ping i))
  done;
  at 8_000 (fun () ->
      N.kill_node net 5;
      sample "kn5");
  at 25_000 (fun () -> N.set_latency_factor net 0 3 1.0);
  at 14_000 (fun () ->
      N.restore_node net 5;
      sample "rn5");
  at 27_129 (fun () ->
      sample "t1-pre";
      N.kill_link net 0 3;
      sample "t1-post");
  at 30_129 (fun () ->
      N.restore_link net 0 3;
      sample "t1-r");
  at 20_500 (fun () ->
      at 21_247 (fun () ->
          sample "t2-pre";
          N.kill_link net 0 8;
          sample "t2-post";
          after 2_500 (fun () ->
              N.restore_link net 0 8;
              sample "t2-r")));
  let rec tick () =
    sample "p";
    if Sim.Engine.now engine < 60_000 then after 997 tick
  in
  at 500 tick;
  Sim.Engine.run engine ~until_us:20_000;
  sample "r1";
  N.kill_link net 1 4;
  sample "r1k";
  Sim.Engine.run engine ~until_us:45_000;
  sample "r2";
  N.restore_link net 1 4;
  Sim.Engine.run_until_quiescent engine;
  sample "q1";
  N.send net ~src:2 ~dst:8 ~size_bytes:700 ~mode:N.Flood (Ping 1000);
  N.send net ~src:6 ~dst:1 ~size_bytes:300 ~mode:N.Flood (Ping 1001);
  Sim.Engine.run engine ~until_us:(Sim.Engine.now engine + 3_000);
  sample "r3";
  N.kill_node net 7;
  Sim.Engine.run_until_quiescent engine;
  sample "q2";
  (!samples, Buffer.contents buf)

let test_net_flood_fault_trace () =
  let samples, trace = flood_fault_trace () in
  let line label =
    List.find
      (fun l -> String.starts_with ~prefix:(label ^ "@") l)
      (String.split_on_char '\n' trace)
  in
  List.iter
    (fun expected ->
      let label = List.hd (String.split_on_char '@' expected) in
      Alcotest.(check string) label expected (line label))
    [
      "t2-pre@21247:146/2237/57/0/45090/213";
      "t2-r@23747:171/2619/105/0/85236/238";
      "t1-pre@27129:205/3175/105/0/85236/272";
      "t1-r@30129:234/3682/135/0/111476/300";
      "q1@64942:288/5834/135/0/111476/300";
      "q2@82159:290/5866/140/0/113776/302";
    ];
  Alcotest.(check int) "samples" 83 samples;
  Alcotest.(check string) "trace digest" "3a2d62a902158de35372053111fc5409"
    (Digest.to_hex (Digest.string trace))

(* ------------------------------------------------------------------ *)
(* WAN boundary ledger *)

let wan_topo () =
  T.multi_site ~site_sizes:[ 2; 2; 1 ] ~lan_latency_us:50
    ~wan_latency_us:(fun sa sb -> 2_000 + (500 * (sa + sb)))
    ~lan_bandwidth_bps:10_000_000 ~wan_bandwidth_bps:1_000_000 ()

(* Traffic that stays inside one site never crosses the boundary, and
   a singleton partition has no boundary to cross at all. *)
let test_wan_ledger_intra_site_empty () =
  let topo = wan_topo () in
  let n = T.node_count topo in
  let part =
    Sim.Shard.make ~shards:(T.site_count topo) ~owner:(T.site_of topo) ~nodes:n
  in
  let engine =
    Sim.Engine.create ~shards:(Sim.Shard.engine_shards part) ()
  in
  let net : net_msg N.t = N.create ~partition:part engine topo () in
  N.send net ~src:0 ~dst:1 ~size_bytes:128 ~mode:N.Shortest (Ping 0);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "intra-site frames" 0 (N.wan_frames net);
  let engine = Sim.Engine.create () in
  let net : net_msg N.t = N.create engine topo () in
  N.send net ~src:0 ~dst:(n - 1) ~size_bytes:128 ~mode:N.Flood (Ping 1);
  Sim.Engine.run_until_quiescent engine;
  Alcotest.(check int) "singleton partition frames" 0 (N.wan_frames net)

let () =
  Alcotest.run "overlay"
    [
      ( "topology",
        [
          Alcotest.test_case "full mesh" `Quick test_full_mesh;
          Alcotest.test_case "duplicate link" `Quick test_duplicate_link_rejected;
          Alcotest.test_case "self link" `Quick test_self_link_rejected;
          Alcotest.test_case "multi-site" `Quick test_multi_site_structure;
          Alcotest.test_case "east coast" `Quick test_east_coast_topology;
        ] );
      ( "routing",
        [
          Alcotest.test_case "shortest path" `Quick
            test_shortest_path_picks_fast_route;
          Alcotest.test_case "avoids unusable" `Quick
            test_shortest_path_avoids_unusable;
          Alcotest.test_case "unreachable" `Quick test_shortest_path_unreachable;
          Alcotest.test_case "path latency" `Quick test_path_latency;
          Alcotest.test_case "disjoint paths" `Quick test_disjoint_paths;
          Alcotest.test_case "east coast redundancy" `Quick
            test_max_disjoint_east_coast;
        ] );
      ( "fair_queue",
        [
          Alcotest.test_case "priority" `Quick test_fair_queue_priority;
          Alcotest.test_case "round robin" `Quick test_fair_queue_round_robin;
          Alcotest.test_case "cap drops" `Quick test_fair_queue_cap_drops;
          QCheck_alcotest.to_alcotest prop_fair_queue_conserves_items;
          Alcotest.test_case "exact rotation" `Quick
            test_fair_queue_exact_rotation;
          QCheck_alcotest.to_alcotest prop_fair_queue_matches_list_model;
          Alcotest.test_case "ring growth past 16 sources" `Quick
            test_fair_queue_many_sources;
          Alcotest.test_case "rejects negative source" `Quick
            test_fair_queue_rejects_negative_source;
        ] );
      ( "net",
        [
          Alcotest.test_case "unicast latency" `Quick test_net_unicast_latency;
          Alcotest.test_case "reroute after kill" `Quick
            test_net_reroutes_after_link_kill;
          Alcotest.test_case "redundant survives kill" `Quick
            test_net_redundant_survives_path_kill_in_flight;
          Alcotest.test_case "redundant dedups" `Quick test_net_redundant_dedups;
          Alcotest.test_case "flood reaches" `Quick test_net_flood_reaches_all;
          Alcotest.test_case "flood hops of delivered copy" `Quick
            test_net_flood_hops_of_delivered_copy;
          Alcotest.test_case "flood duplicates counted" `Quick
            test_net_flood_counts_duplicates;
          Alcotest.test_case "flood survives link loss" `Quick
            test_net_flood_survives_heavy_link_loss;
          Alcotest.test_case "node down" `Quick test_net_node_down_no_delivery;
          Alcotest.test_case "node ops reject unknown node" `Quick
            test_net_node_ops_reject_unknown_node;
          Alcotest.test_case "junk invisible" `Quick
            test_net_junk_does_not_reach_handlers;
          Alcotest.test_case "control beats junk flood" `Quick
            test_net_control_priority_beats_junk_flood;
          Alcotest.test_case "latency factor" `Quick test_net_latency_factor;
          Alcotest.test_case "lossy link ARQ" `Quick test_net_lossy_link_arq_recovers;
          Alcotest.test_case "loss validation" `Quick
            test_net_loss_probability_validation;
          Alcotest.test_case "ARQ exhaustion counted, queue drains" `Quick
            test_net_arq_exhaustion_counted_not_wedged;
          Alcotest.test_case "latency factor validation" `Quick
            test_net_latency_factor_validation;
          Alcotest.test_case "loss becomes latency" `Quick
            test_net_loss_adds_latency_not_loss;
          Alcotest.test_case "self send" `Quick test_net_self_send;
          Alcotest.test_case "retired and unknown src dropped" `Quick
            test_net_retired_src_dropped;
          Alcotest.test_case "mode switch under load" `Quick
            test_net_mode_switch_under_load;
          Alcotest.test_case "invalidation recomputes same routes" `Quick
            test_net_invalidate_routes_recomputes_same;
          Alcotest.test_case "switch preserves in-flight frames" `Quick
            test_net_switch_preserves_in_flight;
          Alcotest.test_case "flood counters exact under faults" `Quick
            test_net_flood_fault_trace;
        ] );
      ( "wan_boundary",
        [
          Alcotest.test_case "intra-site traffic never crosses" `Quick
            test_wan_ledger_intra_site_empty;
        ] );
    ]
