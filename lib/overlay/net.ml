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

(* Directed link runtime state. A link serialises one frame at a time,
   so one timer, created at its first transmission and re-armed, marks
   the end of each transmission and of each ARQ wait; the frame on the
   link and the leg's open span live here rather than in a per-copy
   closure. [tx_frame] keeps the last frame after the link goes idle:
   clearing it would cost a write barrier per completion. [net], [u]
   and [v] let the timer's and a copy's arrival closure capture the
   link alone. *)
type 'a link_state = {
  net : 'a t;
  u : Topology.node;
  v : Topology.node;
  latency_us : int;
  bandwidth_bps : int;
  queue : 'a frame Fair_queue.t;
  mutable tx_timer : Sim.Engine.timer option; (* [None] until first used *)
  mutable busy : bool;
  mutable tx_frame : 'a frame;
  mutable tx_attempt : int; (* ARQ attempt of [tx_frame], from 0 *)
  mutable tx_span : int; (* open Net_transmit or Net_arq span, or -1 *)
  mutable in_arq : bool; (* [tx_timer] is timing an ARQ wait *)
  mutable dups : int array;
      (* known duplicates in flight: a ring of (arrival time, engine
         order, bytes) triples, oldest first (see [transmitted]) *)
  mutable dups_head : int; (* the oldest triple, before [slot]'s mask *)
  mutable dups_len : int; (* triples held *)
  mutable latency_factor : float;
  mutable loss_probability : float;
      (* per-transmission drop probability; the hop-by-hop ARQ below
         retransmits lost frames, trading latency for reliability as
         the real overlay daemons do *)
  mutable retransmissions : int;
  mutable tx_bytes : int; (* bytes serialised, retransmissions included *)
  mutable tx_busy_us : int; (* virtual time spent serialising frames *)
}

and 'a t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  topo : Topology.t;
  nodes : int;
  part : Sim.Shard.partition;
  (* Inter-shard (WAN) ledger: every frame copy enqueued onto a link
     whose endpoints are owned by different shards is counted here —
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

(* The links' frame slot before their first transmission. *)
let blank_frame () =
  {
    src = -1;
    dst = -1;
    priority = Fair_queue.Control;
    size_bytes = 0;
    content = Junk "";
    sent_us = 0;
    hops = 0;
    route = Path [];
    delivered = None;
    trace = -1;
    queue_span = -1;
  }

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
      kpath_cache = Hashtbl.create 16;
      telemetry = Telemetry.Sink.null;
    }
  in
  let blank = blank_frame () in
  List.iter
    (fun link ->
      let a = link.Topology.endpoint_a and b = link.Topology.endpoint_b in
      let mk u v =
        {
          net = t;
          u;
          v;
          latency_us = link.Topology.latency_us;
          bandwidth_bps = link.Topology.bandwidth_bps;
          queue = Fair_queue.create ~per_source_cap;
          tx_timer = None;
          busy = false;
          tx_frame = blank;
          tx_attempt = 0;
          tx_span = -1;
          in_arq = false;
          dups = [||];
          dups_head = 0;
          dups_len = 0;
          latency_factor = 1.0;
          loss_probability = 0.0;
          retransmissions = 0;
          tx_bytes = 0;
          tx_busy_us = 0;
        }
      in
      t.links.(a).(b) <- Some (mk a b);
      t.links.(b).(a) <- Some (mk b a);
      t.link_up.(norm_idx t a b) <- true)
    (Topology.links topo);
  t

let topology t = t.topo
let partition t = t.part
let wan_frames t = Sim.Shard.total_frames t.boundary
let set_telemetry t sink = t.telemetry <- sink

(* Per-hop telemetry. Traced frames ([frame.trace >= 0], sink enabled)
   get root-level spans for each thing that can cost them time on a
   link: waiting in the fair queue, occupying the link, waiting out an
   ARQ retransmission, and propagating. The transmit and ARQ spans are
   held by the link ([tx_span]), the propagation span by the arrival
   closure. *)
let traced t frame = frame.trace >= 0 && Telemetry.Sink.enabled t.telemetry

let link_label u v = string_of_int u ^ "->" ^ string_of_int v

let open_hop_span t ~phase ~node ~label frame =
  Telemetry.Sink.open_span t.telemetry ~trace:frame.trace ~phase ~node ~label
    ~now:(Sim.Engine.now t.engine) ()

let close_hop_span t sid =
  Telemetry.Sink.close_span t.telemetry ~id:sid ~now:(Sim.Engine.now t.engine)

let set_handler t node f = t.handlers.(node) <- Some f
let[@inline] link_alive t a b = t.link_up.(norm_idx t a b)
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

(* Known duplicates. A flooded copy that leaves [u] for a [v] already
   holding the frame can only, on arrival, count as a duplicate (link
   and both nodes up) or as a link-down drop. Unless the copy is traced
   (its arrival closes a propagation span), no arrival event is queued
   for it: the link keeps the place the event would have taken,
   and the copy is settled once the run has passed that place, under
   the liveness then in force. Every liveness change settles what the
   run has passed first, so a copy settled later still sees the
   liveness of its arrival instant. *)
let[@inline] known_duplicate frame v =
  match frame.route with
  | Flooding first_hops -> first_hops.(v) >= 0
  | Path _ -> false

let settle t u v bytes =
  let c = t.ctrs in
  if usable t u v then c.c_duplicates_suppressed <- c.c_duplicates_suppressed + 1
  else begin
    c.c_dropped_link_down <- c.c_dropped_link_down + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + bytes
  end

(* The ring holds a power of two of triples; [slot ls i] is the index
   of the [i]th oldest. *)
let[@inline] slot ls i =
  3 * ((ls.dups_head + i) land ((Array.length ls.dups / 3) - 1))

let push_dup ls ~time_us ~order ~bytes =
  let cap = Array.length ls.dups / 3 in
  if ls.dups_len = cap then begin
    let grown = Array.make (3 * Int.max 16 (2 * cap)) 0 in
    for i = 0 to ls.dups_len - 1 do
      Array.blit ls.dups (slot ls i) grown (3 * i) 3
    done;
    ls.dups <- grown;
    ls.dups_head <- 0
  end;
  let b = slot ls ls.dups_len in
  ls.dups.(b) <- time_us;
  ls.dups.(b + 1) <- order;
  ls.dups.(b + 2) <- bytes;
  ls.dups_len <- ls.dups_len + 1

(* Settle the oldest copies while the run has passed them: cheap, and it
   bounds the ring by the copies in flight. *)
let settle_oldest t u v ls =
  let d = ls.dups in
  while
    ls.dups_len > 0
    && Sim.Engine.passed t.engine ~time_us:d.(slot ls 0) ~order:d.(slot ls 0 + 1)
  do
    settle t u v d.(slot ls 0 + 2);
    ls.dups_head <- ls.dups_head + 1;
    ls.dups_len <- ls.dups_len - 1
  done

(* Settle every copy the run has passed. Arrival places need not follow
   ring order (a link sped up again lands later copies first), so this
   scans the whole ring and closes the gaps. *)
let settle_passed t =
  Array.iteri
    (fun u row ->
      Array.iteri
        (fun v -> function
          | Some ls when ls.dups_len > 0 ->
            let d = ls.dups in
            let kept = ref 0 in
            for i = 0 to ls.dups_len - 1 do
              let b = slot ls i in
              if Sim.Engine.passed t.engine ~time_us:d.(b) ~order:d.(b + 1) then
                settle t u v d.(b + 2)
              else begin
                Array.blit d b d (slot ls !kept) 3;
                incr kept
              end
            done;
            ls.dups_len <- !kept
          | _ -> ())
        row)
    t.links

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

(* The transmit/ARQ legs of a (u, v) hop mutate [u]-owned link state,
   so the link's timer is tagged with [u]'s shard; the propagation leg
   ends in [arrive], which mutates [v]-owned state (its first-arrival
   cell, handler, onward queues), so it is tagged with [v]'s shard. The
   tags never affect event order — keys are engine-global — they only
   attribute each callback to the site whose state it touches. *)
and transmit_frame t u v ls frame attempt =
  ls.busy <- true;
  ls.tx_frame <- frame;
  ls.tx_attempt <- attempt;
  let tx_us = Int.max 1 (frame.size_bytes * 1_000_000 / ls.bandwidth_bps) in
  ls.tx_bytes <- ls.tx_bytes + frame.size_bytes;
  ls.tx_busy_us <- ls.tx_busy_us + tx_us;
  ls.tx_span <-
    (if traced t frame then
       open_hop_span t ~phase:Telemetry.Span.Net_transmit ~node:u
         ~label:(link_label u v) frame
     else -1);
  Sim.Engine.arm (tx_timer ls) ~delay_us:tx_us

(* The link's timer, created at its first transmission: a link that
   never carries a frame costs none. *)
and tx_timer ls =
  match ls.tx_timer with
  | Some timer -> timer
  | None ->
    let timer =
      Sim.Engine.one_shot
        ~shard:(Sim.Shard.engine_shard ls.net.part ls.u)
        ls.net.engine
        (fun () -> link_timer ls)
    in
    ls.tx_timer <- Some timer;
    timer

(* The link's timer: the end of an ARQ wait, or of a transmission. *)
and link_timer ls =
  let t = ls.net and u = ls.u and v = ls.v in
  if ls.tx_span >= 0 then close_hop_span t ls.tx_span;
  if ls.in_arq then begin
    ls.in_arq <- false;
    transmit_frame t u v ls ls.tx_frame (ls.tx_attempt + 1)
  end
  else transmitted t u v ls

and transmitted t u v ls =
  let frame = ls.tx_frame in
  let prop = int_of_float (float_of_int ls.latency_us *. ls.latency_factor) in
  let lost =
    ls.loss_probability > 0. && Sim.Rng.bernoulli t.rng ls.loss_probability
  in
  if lost && ls.tx_attempt < max_retransmissions then begin
    (* The sender detects the loss after ~one round trip and
       retransmits; the link stays occupied meanwhile. *)
    ls.retransmissions <- ls.retransmissions + 1;
    ls.tx_span <-
      (if traced t frame then
         open_hop_span t ~phase:Telemetry.Span.Net_arq ~node:u
           ~label:(link_label u v) frame
       else -1);
    ls.in_arq <- true;
    Sim.Engine.arm (tx_timer ls) ~delay_us:(2 * prop)
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
    else if known_duplicate frame v && not (traced t frame) then begin
      settle_oldest t u v ls;
      let now = Sim.Engine.now t.engine in
      let time_us = if prop > max_int - now then max_int else now + prop in
      push_dup ls ~time_us
        ~order:(Sim.Engine.reserve t.engine ~time_us)
        ~bytes:frame.size_bytes
    end
    else begin
      let arrival =
        if traced t frame then begin
          let prop_sid =
            open_hop_span t ~phase:Telemetry.Span.Net_propagate ~node:u
              ~label:(link_label u v) frame
          in
          fun () ->
            close_hop_span t prop_sid;
            arrive ls.net ls.u ls.v frame
        end
        else fun () -> arrive ls.net ls.u ls.v frame
      in
      ignore
        (Sim.Engine.schedule
           ~shard:(Sim.Shard.engine_shard t.part v)
           t.engine ~delay_us:prop arrival
          : Sim.Engine.timer)
    end;
    maybe_transmit t u v ls
  end

(* Frame arrives at node v over link (u,v). A later flooded copy of a
   frame [v] already has is dropped before [deliver], as a duplicate or,
   on a dead link or node, as a link-down drop. *)
and arrive t u v frame =
  if known_duplicate frame v then settle t u v frame.size_bytes
  else if not (usable t u v) then begin
    let c = t.ctrs in
    c.c_dropped_link_down <- c.c_dropped_link_down + 1;
    c.c_dropped_bytes <- c.c_dropped_bytes + frame.size_bytes
  end
  else
    match frame.route with
    | Flooding first_hops ->
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
       inter-site (WAN) boundary — count each admitted copy. *)
    Sim.Shard.record t.boundary
      ~src_shard:(Sim.Shard.owner_of t.part u)
      ~dst_shard:(Sim.Shard.owner_of t.part v);
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

let inject_junk_bytes t ~src ~dst ~bytes ~priority =
  submit t ~priority ~size_bytes:(String.length bytes) ~src ~dst ~mode:Shortest
    ~trace:(-1) (Junk bytes)

let valid_node t n = n >= 0 && n < t.nodes

let has_link t a b =
  valid_node t a && valid_node t b && Option.is_some t.links.(a).(b)

let kill_link t a b =
  if not (has_link t a b) then invalid_arg "Net.kill_link: no such link";
  settle_passed t;
  t.link_up.(norm_idx t a b) <- false;
  invalidate_routes t

let restore_link t a b =
  if not (has_link t a b) then invalid_arg "Net.restore_link: no such link";
  settle_passed t;
  t.link_up.(norm_idx t a b) <- true;
  invalidate_routes t

let check_node t n name =
  if not (valid_node t n) then invalid_arg ("Net." ^ name ^ ": no such node")

let kill_node t n =
  check_node t n "kill_node";
  settle_passed t;
  t.node_up.(n) <- false;
  invalidate_routes t

let restore_node t n =
  check_node t n "restore_node";
  settle_passed t;
  t.node_up.(n) <- true;
  invalidate_routes t

let node_alive t n =
  check_node t n "node_alive";
  t.node_up.(n)

(* Membership retirement is orthogonal to liveness: a retired node may
   still be up (its daemons keep running on stale state) but its
   frames are no longer admissible. *)
let retire_node t n = if valid_node t n then t.retired.(n) <- true
let unretire_node t n = if valid_node t n then t.retired.(n) <- false

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

let stats t =
  settle_passed t;
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
