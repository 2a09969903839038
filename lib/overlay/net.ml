type mode = Shortest | Redundant of int | Flood

type 'a delivery = {
  frame_src : Topology.node;
  frame_dst : Topology.node;
  payload : 'a;
  sent_us : int;
  delivered_us : int;
  hops : int;
}

type stats = {
  submitted : int;
  delivered : int;
  duplicates_suppressed : int;
  dropped_queue_full : int;
  dropped_link_down : int;
  dropped_no_route : int;
  dropped_arq_exhausted : int;
  dropped_retired_src : int;
  junk_frames : int;
  submitted_bytes : int;
  delivered_bytes : int;
  dropped_bytes : int;
}

(* Junk carries the attacker's actual bytes ("" when a raw test only
   cares about the size); it consumes bandwidth but is never delivered
   to a handler — the daemon's decode-and-authenticate step drops it. *)
type 'a content = Payload of 'a | Junk of string

(* Routing instructions carried by a frame. *)
type route =
  | Path of Topology.node list (* remaining hops, next first *)
  | Flooding of int array
      (* per node: hops traversed by the copy that reached it first, or
         -1 while no copy has (the source starts at 0). Every flooded
         copy shares one frame record, so this array is also the
         frame's exact seen set: a copy reaching [v] when
         [first_hops.(v) >= 0] is a duplicate, however late it comes.
         Only first arrivals are forwarded, so a copy leaving [u] has
         crossed [first_hops.(u)] links. Cell [v] is written once, by
         [v]'s own shard, on [v]'s first arrival. *)

type 'a frame = {
  src : Topology.node;
  dst : Topology.node;
  priority : Fair_queue.priority;
  size_bytes : int;
  content : 'a content;
  sent_us : int;
  hops : int; (* links crossed so far; single-path frames only *)
  route : route;
  delivered : bool ref option;
      (* shared by the k copies of a [Redundant k] send: the first copy
         [deliver]ed sets it and the rest are suppressed. [None] on
         single-path frames, and on flooded ones, which reach [deliver]
         only on the destination's first arrival. *)
  trace : int;
      (* telemetry trace context riding alongside the payload; -1 when
         the frame is untraced, making the hot-path guard one int
         compare *)
  mutable queue_span : int;
      (* open Net_queue span while this copy waits in a link queue, -1
         otherwise; set only on a traced frame's own per-link copy (see
         [enqueue]) *)
}

(* Directed link runtime state. *)
type 'a link_state = {
  latency_us : int;
  bandwidth_bps : int;
  queue : 'a frame Fair_queue.t;
  mutable busy : bool;
  mutable latency_factor : float;
  mutable loss_probability : float;
      (* per-transmission drop probability; the hop-by-hop ARQ below
         retransmits lost frames, trading latency for reliability as
         the real overlay daemons do *)
  mutable retransmissions : int;
  mutable tx_bytes : int; (* bytes serialised, retransmissions included *)
  mutable tx_busy_us : int; (* virtual time spent serialising frames *)
}

type 'a t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  topo : Topology.t;
  nodes : int;
  part : Sim.Shard.partition;
  (* Inter-shard (WAN) ledger: every frame copy enqueued onto a link
     whose endpoints are owned by different shards is recorded here —
     the traffic a real deployment pays WAN bandwidth for. *)
  boundary : Sim.Shard.boundary;
  (* Per-node state is one flat per-destination row per node — the
     per-hop path touches link state several times per frame, and
     tuple-keyed hashtables there cost a key allocation plus hashing
     per access. *)
  links : 'a link_state option array array; (* links.(u).(v) = u -> v *)
  neighbours : int array array;
      (* node -> its topology neighbours, ascending. Built once: links
         are never added after [create], so the flood paths iterate
         this instead of rebuilding the sorted list per frame. Shared
         read-only state, like [link_up]. *)
  link_up : bool array; (* undirected, normalised [a * nodes + b] *)
  node_up : bool array;
  (* link_up/node_up/retired are liveness/membership maps: read on
     every hop, written only by the fault-injection control plane. *)
  (* Membership guard: a retired node's id is no longer a valid frame
     source (its site was removed from the configuration).  Frames
     claiming a retired — or out-of-range — src are counted and
     dropped before they can index the per-node state rows. *)
  retired : bool array;
  handlers : ('a delivery -> unit) option array;
  (* Global statistics. *)
  ctrs : counters;
  per_source_cap : int;
  (* Route caches: shortest paths and disjoint path sets are stable
     between topology state changes (kill/restore); recomputing them
     per frame dominates CPU otherwise. [route_cache.(src).(dst)] is
     [None] when not yet computed. *)
  route_cache : Topology.node list option option array array;
  kpath_cache : (int, Topology.node list list) Hashtbl.t;
      (* key = (src * nodes + dst) * 1024 + min k 1023 *)
  mutable telemetry : Telemetry.Sink.t;
}

and counters = {
  mutable c_submitted : int;
  mutable c_delivered : int;
  mutable c_duplicates_suppressed : int;
  mutable c_dropped_queue_full : int;
  mutable c_dropped_link_down : int;
  mutable c_dropped_no_route : int;
  mutable c_dropped_arq_exhausted : int;
  mutable c_dropped_retired_src : int;
  mutable c_junk_frames : int;
  mutable c_submitted_bytes : int;
  mutable c_delivered_bytes : int;
  mutable c_dropped_bytes : int;
}

let[@inline] norm_idx t a b = if a < b then (a * t.nodes) + b else (b * t.nodes) + a

let create ?(per_source_cap = 64) ?partition engine topo () =
  let n = Topology.node_count topo in
  let part =
    match partition with
    | Some p ->
      if Sim.Shard.nodes p <> n then
        invalid_arg "Net.create: partition node count <> topology node count";
      p
    | None -> Sim.Shard.singleton ~nodes:n
  in
  let t =
    {
      engine;
      rng = Sim.Engine.rng engine;
      topo;
      nodes = n;
      part;
      boundary = Sim.Shard.boundary part;
      links = Array.init n (fun _ -> Array.make n None);
      neighbours =
        Array.init n (fun v -> Array.of_list (Topology.neighbors topo v));
      link_up = Array.make (n * n) false;
      node_up = Array.make n true;
      retired = Array.make n false;
      handlers = Array.make n None;
      ctrs =
        {
          c_submitted = 0;
          c_delivered = 0;
          c_duplicates_suppressed = 0;
          c_dropped_queue_full = 0;
          c_dropped_link_down = 0;
          c_dropped_no_route = 0;
          c_dropped_arq_exhausted = 0;
          c_dropped_retired_src = 0;
          c_junk_frames = 0;
          c_submitted_bytes = 0;
          c_delivered_bytes = 0;
          c_dropped_bytes = 0;
        };
      per_source_cap;
      route_cache = Array.init n (fun _ -> Array.make n None);
      kpath_cache = Hashtbl.create 997;
      telemetry = Telemetry.Sink.null;
    }
  in
  List.iter
    (fun link ->
      let a = link.Topology.endpoint_a and b = link.Topology.endpoint_b in
      let mk () =
        {
          latency_us = link.Topology.latency_us;
          bandwidth_bps = link.Topology.bandwidth_bps;
          queue = Fair_queue.create ~per_source_cap;
          busy = false;
          latency_factor = 1.0;
          loss_probability = 0.0;
          retransmissions = 0;
          tx_bytes = 0;
          tx_busy_us = 0;
        }
      in
      t.links.(a).(b) <- Some (mk ());
      t.links.(b).(a) <- Some (mk ());
      t.link_up.(norm_idx t a b) <- true)
    (Topology.links topo);
  t

let topology t = t.topo
let partition t = t.part
let wan_crossings t = Sim.Shard.crossings t.boundary
let wan_frames t = Sim.Shard.total_frames t.boundary
let wan_bytes t = Sim.Shard.total_bytes t.boundary
let set_telemetry t sink = t.telemetry <- sink

(* Per-hop telemetry. Traced frames ([frame.trace >= 0], sink enabled)
   get root-level spans for each thing that can cost them time on a
   link: waiting in the fair queue, occupying the link, waiting out an
   ARQ retransmission, and propagating. Span ids are captured in the
   transmission closures, so no per-link mutable state is needed. *)
let traced t frame = frame.trace >= 0 && Telemetry.Sink.enabled t.telemetry

let link_label u v = string_of_int u ^ "->" ^ string_of_int v

let open_hop_span t ~phase ~node ~label frame =
  Telemetry.Sink.open_span t.telemetry ~trace:frame.trace ~phase ~node ~label
    ~now:(Sim.Engine.now t.engine) ()

let close_hop_span t sid =
  Telemetry.Sink.close_span t.telemetry ~id:sid ~now:(Sim.Engine.now t.engine)

let set_handler t node f = t.handlers.(node) <- Some f
let[@inline] link_alive t a b = t.link_up.(norm_idx t a b)
let node_alive t n = t.node_up.(n)
let[@inline] usable t a b = link_alive t a b && t.node_up.(a) && t.node_up.(b)

(* The raising arm lives out of line so [link_state] inlines into the
   hop path. *)
let[@inline never] no_such_link () = invalid_arg "Net: no such link"

let[@inline] link_state t a b =
  match t.links.(a).(b) with Some ls -> ls | None -> no_such_link ()

(* Test-and-set of the delivered cell a [Redundant k] send shares
   across its copies; always false for frames that have none. *)
let already_delivered frame =
  match frame.delivered with
  | None -> false
  | Some cell ->
    let seen = !cell in
    cell := true;
    seen

(* Deliver a frame that has arrived at its destination.  A frame whose
   source was retired while the frame was in flight is dropped here:
   stale-site traffic must neither reach handlers nor fault on the
   flattened per-node arrays. *)
let deliver t node frame ~hops =
  if frame.src < 0 || frame.src >= t.nodes || t.retired.(frame.src) then begin
    let c = t.ctrs in
    c.c_dropped_retired_src <- c.c_dropped_retired_src + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
  end
  else if already_delivered frame then begin
    let c = t.ctrs in
    c.c_duplicates_suppressed <- c.c_duplicates_suppressed + 1
  end
  else begin
    match frame.content with
    | Junk _ -> ()
    | Payload payload ->
      let c = t.ctrs in
      c.c_delivered <- c.c_delivered + 1;
      c.c_delivered_bytes <- c.c_delivered_bytes + frame.size_bytes;
      (match t.handlers.(node) with
      | None -> ()
      | Some handler ->
        handler
          {
            frame_src = frame.src;
            frame_dst = frame.dst;
            payload;
            sent_us = frame.sent_us;
            delivered_us = Sim.Engine.now t.engine;
            hops;
          })
  end

(* Start transmitting the head frame of the (u,v) link if idle.

   Hop-by-hop reliability (ARQ): each transmission is lost with the
   link's loss probability; lost frames are retransmitted after a
   timeout of one RTT, up to [max_retransmissions] attempts. This is
   the overlay daemons' per-hop recovery; end-to-end modes (redundant
   paths, flooding) sit on top of it. *)
let max_retransmissions = 8

let rec maybe_transmit t u v ls =
  if not (ls.busy || Fair_queue.is_empty ls.queue) then begin
    let frame = Fair_queue.take ls.queue in
    if frame.queue_span >= 0 then begin
      close_hop_span t frame.queue_span;
      frame.queue_span <- -1
    end;
    transmit_frame t u v ls frame 0
  end

and transmit_frame t u v ls frame attempt =
  ls.busy <- true;
  (* The transmit/ARQ legs of a (u, v) hop mutate [u]-owned link state,
     so those timers are tagged with [u]'s shard; the propagation leg
     ends in [arrive], which mutates [v]-owned state (its first-arrival
     cell, handler, onward queues), so it is tagged with [v]'s shard. The
     tags never affect event order — keys are engine-global — they only
     attribute each callback to the site whose state it touches. *)
  let shard = Sim.Shard.engine_shard t.part u in
  let dst_shard = Sim.Shard.engine_shard t.part v in
  let tx_us = Int.max 1 (frame.size_bytes * 1_000_000 / ls.bandwidth_bps) in
  ls.tx_bytes <- ls.tx_bytes + frame.size_bytes;
  ls.tx_busy_us <- ls.tx_busy_us + tx_us;
  let tx_sid =
    if traced t frame then
      open_hop_span t ~phase:Telemetry.Span.Net_transmit ~node:u
        ~label:(link_label u v) frame
    else -1
  in
  ignore
    (Sim.Engine.schedule ~shard t.engine ~delay_us:tx_us (fun () ->
         if tx_sid >= 0 then close_hop_span t tx_sid;
         let prop =
           int_of_float (float_of_int ls.latency_us *. ls.latency_factor)
         in
         let lost =
           ls.loss_probability > 0.
           && Sim.Rng.bernoulli t.rng ls.loss_probability
         in
         if lost && attempt < max_retransmissions then begin
           (* The sender detects the loss after ~one round trip and
              retransmits; the link stays occupied meanwhile. *)
           ls.retransmissions <- ls.retransmissions + 1;
           let arq_sid =
             if traced t frame then
               open_hop_span t ~phase:Telemetry.Span.Net_arq ~node:u
                 ~label:(link_label u v) frame
             else -1
           in
           ignore
             (Sim.Engine.schedule ~shard t.engine ~delay_us:(2 * prop) (fun () ->
                  if arq_sid >= 0 then close_hop_span t arq_sid;
                  transmit_frame t u v ls frame (attempt + 1))
               : Sim.Engine.timer)
         end
         else begin
           ls.busy <- false;
           if lost then begin
             (* All ARQ attempts failed: the frame is gone for good.
                Surface the drop in stats and keep the queue draining —
                a hot-loss link must not wedge its fair queue. *)
             let c = t.ctrs in
             c.c_dropped_arq_exhausted <- c.c_dropped_arq_exhausted + 1;
             c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
           end
           else begin
             let prop_sid =
               if traced t frame then
                 open_hop_span t ~phase:Telemetry.Span.Net_propagate ~node:u
                   ~label:(link_label u v) frame
               else -1
             in
             ignore
               (Sim.Engine.schedule ~shard:dst_shard t.engine ~delay_us:prop
                  (fun () ->
                    if prop_sid >= 0 then close_hop_span t prop_sid;
                    arrive t u v frame)
                 : Sim.Engine.timer)
           end;
           maybe_transmit t u v ls
         end)
      : Sim.Engine.timer)

(* Frame arrives at node v over link (u,v). *)
and arrive t u v frame =
  if not (usable t u v) then begin
    let c = t.ctrs in
    c.c_dropped_link_down <- c.c_dropped_link_down + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
  end
  else
    match frame.route with
    | Flooding first_hops ->
      if first_hops.(v) >= 0 then begin
        (* A later copy of a frame [v] already has: constrained
           flooding drops it here, before [deliver]. *)
        let c = t.ctrs in
        c.c_duplicates_suppressed <- c.c_duplicates_suppressed + 1
      end
      else begin
        let hops = first_hops.(u) + 1 in
        first_hops.(v) <- hops;
        if v = frame.dst then deliver t v frame ~hops;
        (* Constrained flooding: forward on all usable links except the
           one the frame came in on. *)
        let nbrs = t.neighbours.(v) in
        for i = 0 to Array.length nbrs - 1 do
          let w = nbrs.(i) in
          if w <> u && usable t v w then enqueue t v w frame
        done
      end
    | Path remaining -> (
      let hops = frame.hops + 1 in
      if v = frame.dst then deliver t v frame ~hops
      else
        match remaining with
        | next :: rest when next = v -> (
          match rest with
          | [] -> ()
          | hop :: _ ->
            if usable t v hop then
              enqueue t v hop { frame with route = Path rest; hops }
            else begin
              let c = t.ctrs in
              c.c_dropped_link_down <- c.c_dropped_link_down + 1;
              c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
            end)
        | _ ->
          let c = t.ctrs in
          c.c_dropped_link_down <- c.c_dropped_link_down + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes)

and enqueue t u v frame =
  let ls = link_state t u v in
  (* An idle link's queue is empty (a completion takes the next frame at
     once), so the frame skips [push]/[take] and goes on the link after a
     zero-width queue-wait span. A traced frame that waits queues as its
     own copy, holding its open span: flooded copies share one record. *)
  let idle = not ls.busy and is_traced = traced t frame in
  let frame =
    if is_traced && not idle then { frame with queue_span = -1 } else frame
  in
  let source = frame.src and priority = frame.priority in
  if idle || Fair_queue.push ls.queue ~source ~priority frame then begin
    (* A hop between nodes owned by different shards crosses the
       inter-site (WAN) boundary — ledger each admitted copy. *)
    Sim.Shard.record t.boundary
      ~src_shard:(Sim.Shard.owner_of t.part u)
      ~dst_shard:(Sim.Shard.owner_of t.part v) ~bytes:frame.size_bytes;
    if is_traced then begin
      let sid =
        open_hop_span t ~phase:Telemetry.Span.Net_queue ~node:u
          ~label:(link_label u v) frame
      in
      if idle then close_hop_span t sid else frame.queue_span <- sid
    end;
    if idle then transmit_frame t u v ls frame 0
  end
  else begin
    let c = t.ctrs in
    c.c_dropped_queue_full <- c.c_dropped_queue_full + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
  end

let invalidate_routes t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) None) t.route_cache;
  Hashtbl.reset t.kpath_cache

let cached_shortest t ~src ~dst =
  let row = t.route_cache.(src) in
  match row.(dst) with
  | Some path -> path
  | None ->
    let path = Routing.shortest_path t.topo ~usable:(usable t) ~src ~dst in
    row.(dst) <- Some path;
    path

let cached_disjoint t ~src ~dst ~k =
  let key = (((src * t.nodes) + dst) * 1024) + Int.min k 1023 in
  match Hashtbl.find_opt t.kpath_cache key with
  | Some paths -> paths
  | None ->
    let paths = Routing.disjoint_paths t.topo ~usable:(usable t) ~src ~dst ~k in
    Hashtbl.replace t.kpath_cache key paths;
    paths

let submit t ~priority ~size_bytes ~src ~dst ~mode ~trace content =
  let c = t.ctrs in
  c.c_submitted <- c.c_submitted + 1;
  c.c_submitted_bytes <- c.c_submitted_bytes + size_bytes;
  (match content with
  | Junk _ -> c.c_junk_frames <- c.c_junk_frames + 1
  | Payload _ -> ());
  if
    src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes || t.retired.(src)
  then begin
    (* Unknown or retired source id: stale-site frames after a removal
       (or forged ids) are dropped before touching any [src * nodes]
       indexed state. *)
    c.c_dropped_retired_src <- c.c_dropped_retired_src + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
  end
  else if not t.node_up.(src) then begin
    c.c_dropped_link_down <- c.c_dropped_link_down + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
  end
  else begin
    let base_frame ?delivered route =
      {
        src;
        dst;
        priority;
        size_bytes;
        content;
        sent_us = Sim.Engine.now t.engine;
        hops = 0;
        route;
        delivered;
        trace;
        queue_span = -1;
      }
    in
    if src = dst then begin
      let frame = base_frame (Path []) in
      ignore
        (Sim.Engine.schedule
           ~shard:(Sim.Shard.engine_shard t.part src)
           t.engine ~delay_us:0
           (fun () -> if t.node_up.(src) then deliver t src frame ~hops:0)
          : Sim.Engine.timer)
    end
    else
      match mode with
      | Flood ->
        let first_hops = Array.make t.nodes (-1) in
        first_hops.(src) <- 0;
        let frame = base_frame (Flooding first_hops) in
        let nbrs = t.neighbours.(src) in
        for i = 0 to Array.length nbrs - 1 do
          let w = nbrs.(i) in
          if usable t src w then enqueue t src w frame
        done
      | Shortest -> (
        match cached_shortest t ~src ~dst with
        | None ->
          c.c_dropped_no_route <- c.c_dropped_no_route + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
        | Some (_ :: rest) ->
          let frame = base_frame (Path rest) in
          (match rest with
          | hop :: _ -> enqueue t src hop frame
          | [] -> deliver t src frame ~hops:0)
        | Some [] ->
          c.c_dropped_no_route <- c.c_dropped_no_route + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes)
      | Redundant k -> (
        let paths = cached_disjoint t ~src ~dst ~k:(Int.max 1 k) in
        match paths with
        | [] ->
          c.c_dropped_no_route <- c.c_dropped_no_route + 1;
          c.c_dropped_bytes <- c.c_dropped_bytes + size_bytes
        | paths ->
          (* One delivered cell shared by all copies, so the
             destination delivers exactly one. *)
          let delivered = Some (ref false) in
          List.iter
            (fun path ->
              match path with
              | _ :: (hop :: _ as rest) ->
                enqueue t src hop (base_frame ?delivered (Path rest))
              | _ -> ())
            paths)
  end

let send t ?(priority = Fair_queue.Control) ?(trace = -1) ~size_bytes ~src ~dst
    ~mode payload =
  submit t ~priority ~size_bytes ~src ~dst ~mode ~trace (Payload payload)

let inject_junk t ~src ~dst ~size_bytes ~priority =
  submit t ~priority ~size_bytes ~src ~dst ~mode:Shortest ~trace:(-1) (Junk "")

let inject_junk_bytes t ~src ~dst ~bytes ~priority =
  submit t ~priority ~size_bytes:(String.length bytes) ~src ~dst ~mode:Shortest
    ~trace:(-1) (Junk bytes)

let has_link t a b = t.links.(a).(b) <> None

let kill_link t a b =
  if not (has_link t a b) then invalid_arg "Net.kill_link: no such link";
  t.link_up.(norm_idx t a b) <- false;
  invalidate_routes t

let restore_link t a b =
  if not (has_link t a b) then invalid_arg "Net.restore_link: no such link";
  t.link_up.(norm_idx t a b) <- true;
  invalidate_routes t

let kill_node t n =
  t.node_up.(n) <- false;
  invalidate_routes t

let restore_node t n =
  t.node_up.(n) <- true;
  invalidate_routes t

(* Membership retirement is orthogonal to liveness: a retired node may
   still be up (its daemons keep running on stale state) but its
   frames are no longer admissible. *)
let retire_node t n =
  if n >= 0 && n < t.nodes then t.retired.(n) <- true

let unretire_node t n =
  if n >= 0 && n < t.nodes then t.retired.(n) <- false

let node_retired t n = n >= 0 && n < t.nodes && t.retired.(n)

let set_latency_factor t a b factor =
  if not (Float.is_finite factor) then
    invalid_arg "Net.set_latency_factor: factor not finite";
  if factor < 1.0 then invalid_arg "Net.set_latency_factor: factor < 1";
  (* [int_of_float] of a float at or beyond [max_int] is unspecified (0
     on x86-64), which would make a "slowed" link instantaneous. *)
  if float_of_int (link_state t a b).latency_us *. factor >= float_of_int max_int
  then invalid_arg "Net.set_latency_factor: scaled latency overflows int";
  (link_state t a b).latency_factor <- factor;
  (link_state t b a).latency_factor <- factor

let set_loss_probability t a b p =
  if not (p >= 0. && p < 1.) then
    invalid_arg "Net.set_loss_probability: need 0 <= p < 1";
  (link_state t a b).loss_probability <- p;
  (link_state t b a).loss_probability <- p

(* Ascending (u, v) — the same order the old flat [u * nodes + v] array
   produced, so report orders are unchanged by the shard refactor. *)
let fold_links t f acc =
  let acc = ref acc in
  for u = 0 to t.nodes - 1 do
    let row = t.links.(u) in
    for v = 0 to t.nodes - 1 do
      match row.(v) with
      | None -> ()
      | Some ls -> acc := f u v ls !acc
    done
  done;
  !acc

let retransmissions t = fold_links t (fun _ _ ls acc -> acc + ls.retransmissions) 0

type link_report = {
  link_src : Topology.node;
  link_dst : Topology.node;
  tx_bytes : int;
  tx_busy_us : int;
}

let link_reports t =
  fold_links t
    (fun u v (ls : _ link_state) acc ->
      if ls.tx_bytes = 0 then acc
      else
        {
          link_src = u;
          link_dst = v;
          tx_bytes = ls.tx_bytes;
          tx_busy_us = ls.tx_busy_us;
        }
        :: acc)
    []
  |> List.sort (fun a b ->
         match compare b.tx_bytes a.tx_bytes with
         | 0 -> compare (a.link_src, a.link_dst) (b.link_src, b.link_dst)
         | c -> c)

let link_utilisation _t ~elapsed_us report =
  if elapsed_us <= 0 then 0.
  else min 1. (float_of_int report.tx_busy_us /. float_of_int elapsed_us)

let current_route t ~src ~dst =
  Routing.shortest_path t.topo ~usable:(usable t) ~src ~dst

let stats t =
  let c = t.ctrs in
  {
    submitted = c.c_submitted;
    delivered = c.c_delivered;
    duplicates_suppressed = c.c_duplicates_suppressed;
    dropped_queue_full = c.c_dropped_queue_full;
    dropped_link_down = c.c_dropped_link_down;
    dropped_no_route = c.c_dropped_no_route;
    dropped_arq_exhausted = c.c_dropped_arq_exhausted;
    dropped_retired_src = c.c_dropped_retired_src;
    junk_frames = c.c_junk_frames;
    submitted_bytes = c.c_submitted_bytes;
    delivered_bytes = c.c_delivered_bytes;
    dropped_bytes = c.c_dropped_bytes;
  }
