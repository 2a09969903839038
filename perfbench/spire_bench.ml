(* The repository benchmark. One process runs one workload on one
   domain and prints, as its last stdout line, one JSON object
   {correct, attempted, failed, metrics}.

     spire_bench --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 reports the end-to-end metrics of an untraced run;
   --trace 1 reports the per-layer metrics: counters read after an
   untraced run, a traced run that drives [Sim.Engine.step] itself, and
   replays that time one layer's public functions on a fresh engine.
   README.md in this directory defines every metric and workload. Any
   failed correctness check exits 1 without printing a result. *)

module System = Spire.System

let sec = 1_000_000
let now_ns () = Monotonic_clock.now ()
let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("spire_bench: " ^ msg);
      exit 1)
    fmt

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = Wan_steady | Flood_under_attack | Fleet_100k

let workloads =
  [
    ("wan_steady", Wan_steady);
    ("flood_under_attack", Flood_under_attack);
    ("fleet_100k", Fleet_100k);
  ]

(* Virtual seconds simulated per second of --seconds. A run does a fixed
   amount of simulated work, so its virtual-time metrics depend only on
   the seed and the wall time measures the code; the rates are chosen so
   a run lasts about --seconds on a 2-core x86-64 host. *)
let virtual_per_wall_s = function
  | Wan_steady -> 40.
  | Flood_under_attack -> 1.2
  | Fleet_100k -> 1.1

(* Set-ups per run, the measured one included, for the median that
   [setup_s] reports. *)
let setup_repeats = function
  | Wan_steady | Flood_under_attack -> 201
  | Fleet_100k -> 3

let attack_at_us = 5 * sec
let attack_factor = 20.

(* The calm latency bound of [Chaos.Harness] and [Oracle.Sla]. *)
let deadline_ms = 250.

(* Submissions before this virtual time are start-up, not service. *)
let service_from_us = 1 * sec

(* After the measured horizon the run goes on, untimed, for this long,
   so every update submitted before the horizon has had time to be
   confirmed, resubmissions (2 s timeout) included; one still
   unconfirmed then counts as failed. *)
let grace_us = 3 * sec

(* The program receives only this config. The seed picks the engine's
   root seed (RTU values, field devices, keep-alive loss), the
   substation poll interval in [102.5 ms, 103.5 ms] and the fleet scan
   interval in [202.5 ms, 203.5 ms], so virtual-time results differ a
   little from seed to seed while the offered load stays within 0.5%.
   The intervals stay clear of multiples of Prime's 10 ms proposal
   interval: at exactly 100 ms every poll meets the proposal timer at
   the same phase, and the median latency then depends on that phase
   (17 to 27 ms on [flood_under_attack]) instead of averaging over it. *)
let config_of w ~seed =
  let st = Random.State.make [| seed |] in
  let base = System.default_config () in
  let base =
    {
      base with
      System.seed = Int64.of_int seed;
      poll_interval_us = 102_500 + Random.State.int st 1_001;
      field_scan_interval_us = 202_500 + Random.State.int st 1_001;
    }
  in
  match w with
  | Wan_steady -> base
  | Flood_under_attack -> { base with System.dissemination = Overlay.Net.Flood }
  | Fleet_100k ->
    {
      base with
      System.substations = 2;
      hmis = 1;
      max_batch = 8;
      batch_delay_us = 5_000;
      field_concentrators = 40;
      field_devices = 100_000;
    }

(* The undetected delay attack of [Spire.Scenarios.link_degradation]:
   links between the first daemons of two different sites get
   [factor] times their propagation delay. *)
let congest_primary_wan net ~replicas factor =
  let topo = Overlay.Net.topology net in
  let gateway = Hashtbl.create 7 in
  for r = replicas - 1 downto 0 do
    Hashtbl.replace gateway (Overlay.Topology.site_of topo r) r
  done;
  let is_gateway node =
    node < replicas
    && Hashtbl.find_opt gateway (Overlay.Topology.site_of topo node) = Some node
  in
  List.iter
    (fun (l : Overlay.Topology.link) ->
      let a = l.endpoint_a and b = l.endpoint_b in
      if
        is_gateway a && is_gateway b
        && Overlay.Topology.site_of topo a <> Overlay.Topology.site_of topo b
      then Overlay.Net.set_latency_factor net a b factor)
    (Overlay.Topology.links topo)

type setup = { sys : System.t; create_s : float; start_s : float; setup_s : float }

(* Set-up is everything up to the first event: create, start, and
   arming the workload's scenario. *)
let setup w cfg =
  let t0 = now_s () in
  let sys = System.create cfg in
  let t1 = now_s () in
  System.start sys;
  (match w with
  | Flood_under_attack ->
    let replicas = System.replica_count sys in
    ignore
      (Sim.Engine.schedule_at (System.engine sys) ~time_us:attack_at_us (fun () ->
           congest_primary_wan (System.net sys) ~replicas attack_factor)
        : Sim.Engine.timer)
  | Wan_steady | Fleet_100k -> ());
  let t2 = now_s () in
  { sys; create_s = t1 -. t0; start_s = t2 -. t1; setup_s = t2 -. t0 }

(* One more set-up, timed and dropped. Each starts from a finished GC
   cycle, so it pays for its own allocation and not for collection work
   left over by the previous one (which made the median of the
   sub-millisecond set-ups jump between 0.3 and 0.55 ms from process to
   process). A fleet holds hundreds of MB, so its heap is compacted. *)
let setup_seconds w cfg =
  if w = Fleet_100k then Gc.compact () else Gc.full_major ();
  (setup w cfg).setup_s

(* ------------------------------------------------------------------ *)
(* Outputs and their checks                                            *)

type outcome = {
  submitted : int;
  confirmed : int;
  p50_ms : float;
  p99_ms : float;
  on_time : int;
  max_gap_s : float;
  ledger : string;
}

let wire_ledger sys =
  String.concat ";"
    (List.map
       (fun (kind, frames, bytes) -> Printf.sprintf "%s=%d/%d" kind frames bytes)
       (System.wire_traffic sys))

(* Time without service: the longest interval of submit times in
   [service_from_us, until_us) in which no update was submitted that got
   confirmed within [deadline_ms]. The window edges count as such
   submissions, so a tail of late or lost updates counts too. *)
let max_service_gap ~on_time_submits ~until_us =
  let times = List.sort compare on_time_submits in
  let last, gap =
    List.fold_left
      (fun (prev, gap) t ->
        if t < service_from_us || t >= until_us then (prev, gap)
        else (t, max gap (t - prev)))
      (service_from_us, 0) times
  in
  fi (max gap (until_us - last)) /. 1e6

(* Updates submitted by [until_us] (the engine runs events at the
   horizon itself): latency percentiles, how many
   were confirmed (by the end of the grace period) and how many within
   [deadline_ms]. Submit time is confirmation time minus latency. *)
let outcome_of sys ~until_us ~submitted =
  let h = Stats.Histogram.create () in
  let on_time = ref [] in
  List.iter
    (fun (time_us, ms) ->
      let submit_us = time_us - int_of_float (Float.round (ms *. 1000.)) in
      if submit_us <= until_us then begin
        Stats.Histogram.add h ms;
        if ms <= deadline_ms then on_time := submit_us :: !on_time
      end)
    (Stats.Timeseries.to_list (System.latency_series sys));
  let confirmed = Stats.Histogram.count h in
  let pct p = if confirmed = 0 then 0. else Stats.Histogram.percentile h p in
  {
    submitted;
    confirmed;
    p50_ms = pct 50.;
    p99_ms = pct 99.;
    on_time = List.length !on_time;
    max_gap_s = max_service_gap ~on_time_submits:!on_time ~until_us;
    ledger = wire_ledger sys;
  }

(* Updates the clients have created so far: completed plus pending,
   over every proxy, HMI and concentrator endpoint. ([System]'s own
   submitted counter counts send attempts, after batching.) *)
let created_updates sys =
  let cfg = System.config sys in
  let count e = Scada.Endpoint.completed_count e + Scada.Endpoint.pending_count e in
  let sum n f = List.fold_left (fun a i -> a + count (f i)) 0 (List.init n Fun.id) in
  sum cfg.System.substations (fun i -> Scada.Proxy.endpoint (System.proxy sys i))
  + sum cfg.System.hmis (fun i -> Scada.Hmi.endpoint (System.hmi sys i))
  + sum (System.concentrator_count sys) (fun i ->
        Field.Concentrator.endpoint (System.concentrator sys i))

let check w sys (o : outcome) =
  (try System.assert_agreement sys with Failure msg -> fail "agreement: %s" msg);
  if o.confirmed < 1_000 then
    fail "%d confirmed updates, p99 needs at least 1000 (raise --seconds)"
      o.confirmed;
  match w with
  | Fleet_100k ->
    if (System.fleet_stats sys).Field.Concentrator.confirmed_events = 0 then
      fail "the fleet confirmed no field event"
  | Wan_steady | Flood_under_attack -> ()

(* [wire_debug] re-encodes and decodes every delivered frame and counts
   mismatches; it costs time, so it runs apart from the measured runs,
   past the attack so the flooded, degraded paths are covered too. *)
let decode_check w cfg =
  Gc.compact ();
  let s = setup w { cfg with System.wire_debug = true } in
  System.run s.sys ~duration_us:(attack_at_us + sec);
  (try System.assert_agreement s.sys with Failure msg -> fail "agreement: %s" msg);
  let errors = System.wire_decode_errors s.sys in
  if errors <> 0 then fail "%d frames failed the wire decode round trip" errors

(* ------------------------------------------------------------------ *)
(* Host speed. On this shared 2-core host the speed of a process
   drifts by tens of percent from run to run and over minutes while it
   keeps its CPU (CPU time equals wall time). A fixed reference kernel
   timed in the same process tracks that drift: its time and the run's
   rose and fell together within a few percent, where a kernel run in a
   child process, or one that does not allocate, did not. So the kernel
   is timed between the slices of a run and between set-ups, and the
   timed results are rescaled to a host where it takes
   [reference_nominal_s]. The kernel (a map used as a priority queue, a
   hash table and small allocations) resembles the simulator's work; it
   shares this process's heap, so a change to how the program uses the
   GC can move it a little too. *)
module IM = Map.Make (Int)

let reference_kernel_s () =
  let t0 = now_ns () in
  let q = ref IM.empty in
  for i = 0 to 2047 do
    q := IM.add (i * 37) (Array.make 4 i) !q
  done;
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 99_999 do
    let k, v = IM.min_binding !q in
    q := IM.add (k + 1 + ((i * 7919) land 4095)) (Array.make 4 i) (IM.remove k !q);
    let hk = (k * 31) land 8191 in
    (match Hashtbl.find_opt h hk with
    | Some x -> Hashtbl.replace h hk (x + v.(0))
    | None -> Hashtbl.add h hk v.(1));
    acc := !acc + v.(2)
  done;
  ignore (Sys.opaque_identity !acc);
  Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* The kernel's time on the host the bounds were set on, at full speed. *)
let reference_nominal_s = 0.040

(* [t] seconds measured while the kernel took [reference_s], as seconds
   on the nominal host. *)
let at_nominal t ~reference_s = t *. reference_nominal_s /. reference_s

(* ------------------------------------------------------------------ *)
(* The untraced run                                                    *)

type run = {
  wall_s : float;
  nominal_wall_s : float;  (** [wall_s] rescaled to the nominal host *)
  until_us : int;
  events : int;
  minor_words : float;
  major_words : float;
  major_collections : int;
  outcome : outcome;
}

(* The measured horizon runs in slices with a kernel timing between
   them; each slice is rescaled by the mean of the timings on either
   side, which tracks drift within the run. [wall_s] sums the slices
   alone. Stopping and resuming [System.run] does not change the
   trajectory. *)
let run_slices = 20

let run_untraced w sys ~duration_us =
  let engine = System.engine sys in
  let until_us = Sim.Engine.now engine + duration_us in
  let wall_s = ref 0. and nominal = ref 0. in
  let minor = ref 0. and major = ref 0. and colls = ref 0 in
  let before = ref (reference_kernel_s ()) in
  for i = 1 to run_slices do
    let slice_until = until_us - (duration_us * (run_slices - i) / run_slices) in
    let g0 = Gc.quick_stat () in
    let t0 = now_s () in
    System.run sys ~duration_us:(slice_until - Sim.Engine.now engine);
    let dt = now_s () -. t0 in
    let g1 = Gc.quick_stat () in
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major +. (g1.Gc.major_words -. g0.Gc.major_words);
    colls := !colls + (g1.Gc.major_collections - g0.Gc.major_collections);
    let after = reference_kernel_s () in
    wall_s := !wall_s +. dt;
    nominal := !nominal +. at_nominal dt ~reference_s:((!before +. after) /. 2.);
    before := after
  done;
  let events = Sim.Engine.processed engine in
  let submitted = created_updates sys in
  System.run sys ~duration_us:grace_us;
  let outcome = outcome_of sys ~until_us ~submitted in
  check w sys outcome;
  {
    wall_s = !wall_s;
    nominal_wall_s = !nominal;
    until_us;
    events;
    minor_words = !minor;
    major_words = !major;
    major_collections = !colls;
    outcome;
  }

(* ------------------------------------------------------------------ *)
(* The traced run: the same trajectory with telemetry on, stepped one
   event at a time and each step's wall time charged to the heap it
   came from. Heap 0 is the engine's control heap; heap h >= 1 hosts
   partition shard h - 1 ([System.shard_partition]). *)

type traced = { t_wall_s : float; busy_ns : int array; executed : int array }

let run_traced sys ~duration_us =
  let engine = System.engine sys in
  let until_us = Sim.Engine.now engine + duration_us in
  let heaps = Sim.Engine.shards engine in
  let busy_ns = Array.make heaps 0 in
  let before = Array.init heaps (Sim.Engine.processed_of engine) in
  let t0 = now_s () in
  let rec loop () =
    match Sim.Engine.Window.peek_next engine with
    | Some (heap, time) when time <= until_us ->
      let s0 = now_ns () in
      ignore (Sim.Engine.step engine : bool);
      let s1 = now_ns () in
      busy_ns.(heap) <- busy_ns.(heap) + Int64.to_int (Int64.sub s1 s0);
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  Sim.Engine.Window.finish_run engine ~until_us;
  let t_wall_s = now_s () -. t0 in
  let executed =
    Array.init heaps (fun h -> Sim.Engine.processed_of engine h - before.(h))
  in
  { t_wall_s; busy_ns; executed }

(* ------------------------------------------------------------------ *)
(* Layer replays on a fresh engine, sized from the workload's counters *)

let time_per ~iters f =
  let t0 = now_ns () in
  for i = 1 to iters do
    f i
  done;
  Int64.to_float (Int64.sub (now_ns ()) t0) /. fi iters

(* No-op events on an engine whose heap stays at [heap] entries. *)
let sim_replay ~heap ~events =
  let engine = Sim.Engine.create ~seed:1L () in
  let st = Random.State.make [| heap |] in
  let delays = Array.init 4096 (fun _ -> 1 + Random.State.int st 10_000) in
  let next = ref 0 in
  let rec tick () =
    next := (!next + 1) land 4095;
    ignore (Sim.Engine.schedule engine ~delay_us:delays.(!next) tick : Sim.Engine.timer)
  in
  for _ = 1 to max 1 heap do
    tick ()
  done;
  time_per ~iters:events (fun _ -> ignore (Sim.Engine.step engine : bool))

(* Per-kind sample frames for [Wire.Envelope.size]. Kinds without a
   sample (field frames, state transfer, view changes) are left out of
   the replay mix. *)
let wire_samples ~replicas =
  let upd i =
    Bft.Update.create ~client:(i mod 11) ~client_seq:i
      ~operation:(String.make 40 'o') ~submitted_us:(i * 1000)
  in
  let digest = Cryptosim.Digest.of_string "spire-bench" in
  let group =
    Cryptosim.Threshold.create_group ~seed:1L
      ~members:(List.init replicas Fun.id) ~threshold:2
  in
  let reply r =
    {
      Scada.Reply.replica = r;
      update_key = (1, 2);
      exec_index = 3;
      digest;
      share = Cryptosim.Threshold.sign_share group ~member:r digest;
      body = Scada.Reply.Ack;
    }
  in
  let matrix = Array.init replicas (fun i -> Array.init replicas (fun j -> (i * 7) + j)) in
  let prime m = Wire.Message.Prime_msg (1, m) in
  let updates = List.init 8 upd in
  List.map
    (fun m -> (Wire.Message.kind m, m))
    [
      prime (Prime.Msg.Po_request { origin = 1; po_seq = 9; update = upd 1 });
      prime (Prime.Msg.Po_batch { origin = 1; first_seq = 9; updates });
      prime (Prime.Msg.Po_aru { vector = matrix.(0) });
      prime (Prime.Msg.Preprepare { view = 0; seq = 42; matrix });
      prime (Prime.Msg.Prepare { view = 0; seq = 42; digest });
      prime (Prime.Msg.Commit { view = 0; seq = 42; digest });
      prime (Prime.Msg.Checkpoint { executed = 420; chain = digest });
      prime (Prime.Msg.Recon_request { origin = 1; po_seq = 9 });
      prime (Prime.Msg.Recon_reply { origin = 1; po_seq = 9; update = upd 1 });
      prime (Prime.Msg.Slot_request { seq = 42 });
      prime (Prime.Msg.Slot_reply { seq = 42; matrix });
      prime (Prime.Msg.Suspect { view = 0 });
      Wire.Message.Client_update (upd 1);
      Wire.Message.Client_batch updates;
      Wire.Message.Replica_reply (reply 1);
      Wire.Message.Reply_batch (List.init 4 (fun _ -> reply 2));
    ]

(* [Wire.Envelope.size] over the workload's per-kind frame mix. *)
let wire_replay ~replicas ~mix =
  let samples = wire_samples ~replicas in
  let weighted =
    List.filter_map
      (fun (kind, frames, _) ->
        Option.map (fun m -> (m, frames)) (List.assoc_opt kind samples))
      mix
  in
  let total = List.fold_left (fun a (_, f) -> a + f) 0 weighted in
  if total = 0 then 0.
  else begin
    let slots = 4096 in
    let seq =
      Array.concat
        (List.map
           (fun (m, f) -> Array.make (max 1 (f * slots / total)) m)
           weighted)
    in
    let st = Random.State.make [| total |] in
    let n = Array.length seq in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = seq.(i) in
      seq.(i) <- seq.(j);
      seq.(j) <- x
    done;
    let sink = ref 0 in
    let ns =
      time_per ~iters:2_000_000 (fun i ->
          sink := !sink + Wire.Envelope.size ~sender:1 seq.(i mod n))
    in
    if !sink = 0 then fail "wire replay measured no bytes";
    ns
  end

(* Threshold shares and digests as the replicas and clients use them. *)
let crypto_replay cfg =
  let n = cfg.System.quorum.Bft.Quorum.n in
  let threshold = Bft.Quorum.reply_threshold cfg.System.quorum in
  let group =
    Cryptosim.Threshold.create_group ~seed:cfg.System.seed
      ~members:(List.init n Fun.id) ~threshold
  in
  let digests =
    Array.init 1024 (fun i -> Cryptosim.Digest.of_string (string_of_int i))
  in
  let d i = digests.(i land 1023) in
  let iters = 200_000 in
  let sign = time_per ~iters (fun i ->
      ignore (Cryptosim.Threshold.sign_share group ~member:(i mod n) (d i)))
  in
  let shares =
    Array.map
      (fun dg ->
        List.init threshold (fun m -> Cryptosim.Threshold.sign_share group ~member:m dg))
      digests
  in
  let verify =
    time_per ~iters (fun i ->
        if not (Cryptosim.Threshold.verify_share group ~digest:(d i)
                  (List.hd shares.(i land 1023)))
        then fail "crypto replay: a valid share did not verify")
  in
  let combine =
    time_per ~iters (fun i ->
        match Cryptosim.Threshold.combine group ~digest:(d i) shares.(i land 1023) with
        | Some _ -> ()
        | None -> fail "crypto replay: valid shares did not combine")
  in
  let kb = String.init 1024 (fun i -> Char.chr (i land 255)) in
  let digest_kb =
    time_per ~iters (fun _ -> ignore (Cryptosim.Digest.of_string kb : Cryptosim.Digest.t))
  in
  (sign, verify, combine, digest_kb)

(* The workload's topology, partition, mode and latency factors on a
   fresh [Overlay.Net] with unit payloads: replica-to-replica frames
   drawn from the workload's size mix, sent at its frame rate. Returns
   wall ns per WAN frame copy. *)
let overlay_replay w cfg ~topo ~partition ~replicas ~mix ~frames ~copies_per_frame
    ~duration_us =
  let total = List.fold_left (fun a (_, f, _) -> a + f) 0 mix in
  if frames = 0 || total = 0 then 0.
  else begin
    let frames = min frames (max 1_000 (int_of_float (1e6 /. max 1. copies_per_frame))) in
    let engine =
      Sim.Engine.create ~seed:cfg.System.seed
        ~shards:(Sim.Shard.engine_shards partition) ()
    in
    let net : unit Overlay.Net.t = Overlay.Net.create ~partition engine topo () in
    if w = Flood_under_attack then congest_primary_wan net ~replicas attack_factor;
    let st = Random.State.make [| frames |] in
    let size_of_rank r =
      let rec pick acc = function
        | [] -> 64
        | (_, f, b) :: rest -> if r < acc + f then b / max 1 f else pick (acc + f) rest
      in
      pick 0 mix
    in
    let sends =
      Array.init frames (fun _ ->
          let src = Random.State.int st replicas in
          let dst = (src + 1 + Random.State.int st (replicas - 1)) mod replicas in
          (src, dst, size_of_rank (Random.State.int st total)))
    in
    let interval_us = max 1 (duration_us / frames) in
    let sent = ref 0 in
    let timer = ref None in
    let send () =
      if !sent < frames then begin
        let src, dst, size_bytes = sends.(!sent) in
        incr sent;
        Overlay.Net.send net ~size_bytes ~src ~dst ~mode:cfg.System.dissemination ()
      end
      else Option.iter Sim.Engine.cancel !timer
    in
    let t0 = now_ns () in
    timer := Some (Sim.Engine.periodic engine ~interval_us send);
    Sim.Engine.run_until_quiescent engine;
    let ns = Int64.to_float (Int64.sub (now_ns ()) t0) in
    ns /. fi (max 1 (Overlay.Net.wan_frames net))
  end

(* One standalone concentrator with stub submit/charge at the workload's
   devices per concentrator: (create ns/device, scan ns/device-round,
   minor words/device-round). *)
let field_replay cfg =
  let conc = cfg.System.field_concentrators in
  if conc = 0 then (0., 0., 0.)
  else begin
    let devices = cfg.System.field_devices / conc in
    let engine = Sim.Engine.create ~seed:cfg.System.seed () in
    let group =
      Cryptosim.Threshold.create_group ~seed:cfg.System.seed ~members:[ 0; 1; 2 ]
        ~threshold:2
    in
    let config =
      {
        Field.Concentrator.devices;
        scan_interval_us = cfg.System.field_scan_interval_us;
        phase_us = 0;
        write_interval_us = 0;
        keepalive_loss = cfg.System.field_loss;
      }
    in
    let t0 = now_ns () in
    let c =
      Field.Concentrator.create ~engine ~id:0 ~client_id:0 ~first_device:0
        ~seed:cfg.System.seed ~group
        ~resubmit_timeout_us:cfg.System.resubmit_timeout_us
        ~submit:(fun ~attempt:_ _ -> ())
        ~charge:(fun _ -> ())
        ~config ()
    in
    let create_ns = Int64.to_float (Int64.sub (now_ns ()) t0) in
    Field.Concentrator.start c;
    let rounds = 40 in
    let w0 = Gc.minor_words () in
    let t1 = now_ns () in
    Sim.Engine.run engine ~until_us:(rounds * cfg.System.field_scan_interval_us);
    let scan_ns = Int64.to_float (Int64.sub (now_ns ()) t1) in
    let words = Gc.minor_words () -. w0 in
    let dr = fi (devices * (Field.Concentrator.stats c).Field.Concentrator.rounds) in
    if dr = 0. then fail "field replay ran no scan round";
    (create_ns /. fi devices, scan_ns /. dr, words /. dr)
  end

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.) }

(* Set-ups are rescaled like run slices, each by the mean of the kernel
   timings on either side of it (one timing per [per] set-ups when they
   are short). *)
let nominal_setups w cfg ~count =
  let per = if w = Fleet_100k then 1 else 25 in
  let before = ref (reference_kernel_s ()) in
  let out = ref [] and batch = ref [] in
  for i = 1 to count do
    batch := setup_seconds w cfg :: !batch;
    if i mod per = 0 || i = count then begin
      let after = reference_kernel_s () in
      let reference_s = (!before +. after) /. 2. in
      out := List.map (fun t -> at_nominal t ~reference_s) !batch @ !out;
      batch := [];
      before := after
    end
  done;
  !out

(* The extra set-ups of a fleet hold hundreds of MB each, so they follow
   the run. The short ones come first, in the fresh process: after the
   run their median depended on what the run had left in the heap. *)
let end_to_end w cfg ~duration_us =
  let extra = setup_repeats w - 1 in
  let early = if w = Fleet_100k then [] else nominal_setups w cfg ~count:extra in
  let pre = reference_kernel_s () in
  let first = setup w cfg in
  let first_setup =
    at_nominal first.setup_s ~reference_s:((pre +. reference_kernel_s ()) /. 2.)
  in
  let r = run_untraced w first.sys ~duration_us in
  let peak_heap_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  Gc.compact ();
  let late = if w = Fleet_100k then nominal_setups w cfg ~count:extra else [] in
  decode_check w cfg;
  let o = r.outcome in
  let virtual_s = fi duration_us /. 1e6 in
  Printf.eprintf
    "%d updates submitted, %d confirmed, %d within %.0f ms; raw %.4f s/s, \
     host %.3fx nominal\n%!"
    o.submitted o.confirmed o.on_time deadline_ms (virtual_s /. r.wall_s)
    (r.wall_s /. r.nominal_wall_s);
  ( o,
    [
      m "sim_s_per_wall_s" "s/s" (virtual_s /. r.nominal_wall_s);
      m "setup_s" "s" (median ((first_setup :: early) @ late));
      m "peak_heap_mb" "MB" peak_heap_mb;
      m "update_latency_p50_ms" "ms" o.p50_ms;
      m "update_latency_p99_ms" "ms" o.p99_ms;
      m "update_on_time_ratio" "ratio" (ratio (fi o.on_time) (fi o.submitted));
      m "max_service_gap_s" "s" o.max_gap_s;
    ] )

(* Partition shards in [System.shard_partition] order; engine heap
   h >= 1 hosts shard h - 1 (heap 0, the control heap, stays empty). *)
let shard_names = [| "cc1"; "cc2"; "dc1"; "dc2"; "clients" |]

let per_layer w cfg ~duration_us =
  let secs = fi duration_us /. 1e6 in
  (* (a) counters of an untraced run *)
  let first = setup w cfg in
  let sys = first.sys in
  let r = run_untraced w sys ~duration_us in
  let o = r.outcome in
  let engine = System.engine sys in
  let heaps = Sim.Engine.shards engine in
  let hi_water =
    Array.fold_left max 0 (Array.init heaps (Sim.Engine.heap_hi_water engine))
  in
  let net = System.net sys in
  let ns = Overlay.Net.stats net in
  let drops =
    ns.dropped_queue_full + ns.dropped_link_down + ns.dropped_no_route
    + ns.dropped_arq_exhausted + ns.dropped_retired_src
  in
  let mix = System.wire_traffic sys in
  let wire_frames = List.fold_left (fun a (_, f, _) -> a + f) 0 mix in
  let wire_bytes = List.fold_left (fun a (_, _, b) -> a + b) 0 mix in
  let frames_of kind =
    List.fold_left (fun a (k, f, _) -> if k = kind then a + f else a) 0 mix
  in
  let client_frames = frames_of "client_update" + frames_of "client_batch" in
  let copies_per_frame = ratio (fi (Overlay.Net.wan_frames net)) (fi ns.submitted) in
  let fleet = System.fleet_stats sys in
  let max_view =
    List.fold_left max 0
      (List.init (System.replica_count sys) (fun rep ->
           if (System.faults sys rep).Bft.Faults.crashed then 0
           else System.view_of sys rep))
  in
  let replicas = System.replica_count sys in
  let topo = Overlay.Net.topology net in
  let partition = Overlay.Net.partition net in
  let events = r.events in
  let counters =
    let ev = fi (max 1 events) in
    let upd = fi (max 1 o.confirmed) in
    [
      m "sim.events_per_sim_s" "1/s" (fi events /. secs);
      m "sim.heap_hi_water" "count" (fi hi_water);
      m "gc.minor_words_per_event" "words" (r.minor_words /. ev);
      m "gc.major_words_per_event" "words" (r.major_words /. ev);
      m "gc.major_collections" "count" (fi r.major_collections);
      m "overlay.frames_per_sim_s" "1/s" (fi ns.submitted /. secs);
      m "overlay.copies_per_frame" "count" copies_per_frame;
      m "overlay.delivered_ratio" "ratio" (ratio (fi ns.delivered) (fi ns.submitted));
      m "overlay.drops" "count" (fi drops);
      m "overlay.retransmissions" "count" (fi (Overlay.Net.retransmissions net));
      m "wire.frames_per_update" "count" (fi wire_frames /. upd);
      m "wire.bytes_per_update" "B" (fi wire_bytes /. upd);
      m "prime.max_view" "count" (fi max_view);
      m "bft.updates_per_client_frame" "count"
        (ratio (fi o.submitted) (fi client_frames));
      m "field.device_events_per_sim_s" "1/s" (fi fleet.events_seen /. secs);
      m "field.confirmed_event_ratio" "ratio"
        (ratio (fi fleet.confirmed_events) (fi fleet.events_seen));
      m "field.churn_per_sim_s" "1/s" (fi fleet.churn /. secs);
      m "core.create_s" "s" first.create_s;
      m "core.start_s" "s" first.start_s;
    ]
  in
  (* (b) the traced run *)
  let traced_metrics =
    Gc.compact ();
    let s = setup w { cfg with System.telemetry = true } in
    let t = run_traced s.sys ~duration_us in
    let submitted = created_updates s.sys in
    System.run s.sys ~duration_us:grace_us;
    let to_ = outcome_of s.sys ~until_us:r.until_us ~submitted in
    check w s.sys to_;
    if to_.confirmed <> o.confirmed then
      fail "traced run confirmed %d updates, untraced %d" to_.confirmed o.confirmed;
    if to_.p99_ms <> o.p99_ms then
      fail "traced p99 %.6f ms, untraced %.6f ms" to_.p99_ms o.p99_ms;
    if not (String.equal to_.ledger o.ledger) then
      fail "traced wire ledger differs from the untraced one";
    let sink = System.telemetry s.sys in
    let attr = Telemetry.Attribution.build sink in
    if not attr.Telemetry.Attribution.reconciled then
      fail "phase attribution does not reconcile (delta %.3f us)"
        attr.Telemetry.Attribution.delta_us;
    let total_busy = fi (Array.fold_left ( + ) 0 t.busy_ns) in
    let shard_metrics =
      List.concat
        (List.mapi
           (fun i name ->
             let h = i + 1 in
             let busy, exec =
               if h < Array.length t.busy_ns then (t.busy_ns.(h), t.executed.(h))
               else (0, 0)
             in
             [
               m (Printf.sprintf "shard.%s.busy_share" name) "ratio"
                 (ratio (fi busy) total_busy);
               m (Printf.sprintf "shard.%s.ns_per_event" name) "ns"
                 (ratio (fi busy) (fi exec));
             ])
           (Array.to_list shard_names))
    in
    let hist phase = Telemetry.Sink.hist sink phase in
    let mean_ms phase =
      let h = hist phase in
      if Stats.Histogram.count h = 0 then 0. else Stats.Histogram.mean h /. 1e3
    in
    let p99_ms phase =
      let h = hist phase in
      if Stats.Histogram.count h = 0 then 0.
      else Stats.Histogram.percentile h 99. /. 1e3
    in
    let row phase = Telemetry.Attribution.phase_row attr phase in
    let row_mean phase =
      match row phase with Some rw -> rw.Telemetry.Attribution.mean_us /. 1e3 | None -> 0.
    in
    let phases =
      Telemetry.Span.
        [
          ("batch_wait", Batch_wait);
          ("ingress", Ingress);
          ("preorder", Preorder);
          ("ordering", Ordering);
          ("execution", Execution);
          ("reply", Reply);
        ]
    in
    shard_metrics
    @ [
        m "net.queue.p99_ms" "ms" (p99_ms Telemetry.Span.Net_queue);
        m "net.transmit.mean_ms" "ms" (mean_ms Telemetry.Span.Net_transmit);
        m "net.arq.mean_ms" "ms" (mean_ms Telemetry.Span.Net_arq);
        m "net.propagate.mean_ms" "ms" (mean_ms Telemetry.Span.Net_propagate);
      ]
    @ List.map (fun (n, p) -> m (Printf.sprintf "phase.%s.mean_ms" n) "ms" (row_mean p)) phases
    @ [
        m "phase.ordering.p99_ms" "ms"
          (match row Telemetry.Span.Ordering with
          | Some rw -> rw.Telemetry.Attribution.p99_us /. 1e3
          | None -> 0.);
        m "trace.overhead_ratio" "ratio" (t.t_wall_s /. r.wall_s);
      ]
  in
  (* (c) layer replays *)
  let sim_ns = sim_replay ~heap:hi_water ~events:(min events 2_000_000) in
  let overlay_ns =
    overlay_replay w cfg ~topo ~partition ~replicas ~mix ~frames:ns.submitted
      ~copies_per_frame ~duration_us
  in
  let size_ns = wire_replay ~replicas ~mix in
  let sign, verify, combine, digest_kb = crypto_replay cfg in
  let create_ns, scan_ns, scan_words = field_replay cfg in
  decode_check w cfg;
  let replays =
    [
      m "sim.ns_per_event" "ns" sim_ns;
      m "overlay.ns_per_copy" "ns" overlay_ns;
      m "wire.size_ns_per_frame" "ns" size_ns;
      m "crypto.share_sign_ns" "ns" sign;
      m "crypto.share_verify_ns" "ns" verify;
      m "crypto.combine_ns" "ns" combine;
      m "crypto.digest_ns_per_kb" "ns" digest_kb;
      m "field.create_ns_per_device" "ns" create_ns;
      m "field.scan_ns_per_device_round" "ns" scan_ns;
      m "field.minor_words_per_device_round" "words" scan_words;
    ]
  in
  (o, counters @ traced_metrics @ replays)

(* ------------------------------------------------------------------ *)
(* Command line and result line                                        *)

let usage () =
  fail
    "usage: spire_bench --workload (%s) --seed N --seconds S --trace 0|1"
    (String.concat "|" (List.map fst workloads))

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest
      when List.mem key [ "--workload"; "--seed"; "--seconds"; "--trace" ] ->
      go ((key, value) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get key = match List.assoc_opt key args with Some v -> v | None -> usage () in
  let int key =
    match int_of_string_opt (get key) with Some v -> v | None -> usage ()
  in
  let w =
    match List.assoc_opt (get "--workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "--seconds" and trace = int "--trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, int "--seed", seconds, trace = 1)

let json_of_result (o : outcome) metrics =
  let field mt =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" mt.name mt.value mt.unit_
  in
  Printf.sprintf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.submitted (o.submitted - o.confirmed)
    (String.concat ", " (List.map field metrics))

let () =
  let w, seed, seconds, trace = parse Sys.argv in
  let cfg = config_of w ~seed in
  Printf.printf
    "host: {\"seed\": %d, \"nproc\": %d, \"ocaml\": %S, \"profile\": %S}\n%!"
    seed
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Build_info.profile;
  let duration_us = int_of_float (virtual_per_wall_s w *. fi seconds *. 1e6) in
  let o, metrics =
    if trace then per_layer w cfg ~duration_us else end_to_end w cfg ~duration_us
  in
  List.iter
    (fun mt -> Printf.printf "%-38s %16.6f %s\n" mt.name mt.value mt.unit_)
    metrics;
  print_endline (json_of_result o metrics)
