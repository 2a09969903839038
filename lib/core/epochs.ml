open Wire.Message

(* A joining replica's chunk-gated state transfer: the vouched
   (snapshot, master) pair is held aside while its serialised bytes
   traverse the overlay as [Transfer_chunk] frames; missing chunks are
   re-requested under the bounded-backoff ARQ and the new instance is
   only installed once every chunk has arrived. *)
type join_session = {
  js_xfer : int;
  js_replica : int;
  js_epoch : int;
  js_donor : int;
  js_snap : Prime.Replica.snapshot;
  js_master : Scada.Master.t;
  js_chunks : Recovery.State_transfer.chunk array;
  js_received : bool array;
  mutable js_done : bool;
}

type t = {
  engine : Sim.Engine.t;
  net : Wire.Message.t Overlay.Net.t;
  send : Send.t;
  telemetry : Telemetry.Sink.t;
  seed : int64;
  universe : int;
  shard_of : int -> int;
  (* The deployment's replica table and masters, reached only through
     these operations. *)
  instance : int -> Instance.t;
  set_instance : int -> Instance.t -> unit;
  master : int -> Scada.Master.t;
  set_master : int -> Scada.Master.t -> unit;
  make_member_instance :
    cert:Member.Cert.t -> members:int array -> rank:int -> global:int ->
    Instance.t;
  directory : Member.Directory.t;
  epoch_of : int array; (* per global replica; -1 = standby or retired *)
  rank_maps : (int array * int array) Bft.Tbl.Int.t;
      (* epoch -> (rank -> global id, global id -> rank or -1); read for
         every received frame *)
  mutable groups : (int * Cryptosim.Threshold.group) list; (* epoch -> group *)
  mutable cur_epoch : int;
  mutable cur_members : int array; (* rank -> global, current epoch *)
  pending_reconfig : (int * Member.Reconfig.t) option array;
  mutable cutovers : (int * int * int) list;
      (* (epoch, boundary_exec, time_us), newest first *)
  mutable stale_epoch_frames : int;
  mutable epoch_violation : string option; (* latched, never cleared *)
  sessions : (int, join_session) Hashtbl.t; (* xfer_id -> session *)
  mutable next_xfer : int;
  mutable reconciler_armed : bool;
  lag_since : int array; (* first time a member was seen lagging; -1 = none *)
  arq : Recovery.State_transfer.arq;
  mutable epoch_listeners : (int -> unit) list;
  mutable group_listeners : (Cryptosim.Threshold.group -> unit) list;
}

let create ~engine ~net ~send ~telemetry ~seed ~universe ~genesis ~group
    ~shard_of ~instance ~set_instance ~master ~set_master ~build =
  let members = Array.of_list (Member.Cert.members genesis) in
  let rank_of = Array.make universe (-1) in
  Array.iteri (fun i g -> rank_of.(g) <- i) members;
  let rank_maps = Bft.Tbl.Int.create 7 in
  Bft.Tbl.Int.replace rank_maps 0 (members, rank_of);
  {
    engine;
    net;
    send;
    telemetry;
    seed;
    universe;
    shard_of;
    instance;
    set_instance;
    master;
    set_master;
    make_member_instance = build;
    directory = Member.Directory.create ~genesis;
    epoch_of = Array.map (fun rank -> if rank >= 0 then 0 else -1) rank_of;
    rank_maps;
    groups = [ (0, group) ];
    cur_epoch = 0;
    cur_members = members;
    pending_reconfig = Array.make universe None;
    cutovers = [];
    stale_epoch_frames = 0;
    epoch_violation = None;
    sessions = Hashtbl.create 7;
    next_xfer = 1000;
    reconciler_armed = false;
    lag_since = Array.make universe (-1);
    arq = Recovery.State_transfer.default_arq;
    epoch_listeners = [];
    group_listeners = [];
  }

let directory t = t.directory
let current_epoch t = t.cur_epoch
let epoch_of t r = t.epoch_of.(r)
let members t = t.cur_members
let members_of_epoch t e = Option.map fst (Bft.Tbl.Int.find_opt t.rank_maps e)
let stale_epoch_frames t = t.stale_epoch_frames
let cutovers t = List.rev t.cutovers
let epoch_violation t = t.epoch_violation
let on_epoch_change t f = t.epoch_listeners <- f :: t.epoch_listeners
let on_group t f = t.group_listeners <- t.group_listeners @ [ f ]
let bump_stale_epoch t = t.stale_epoch_frames <- t.stale_epoch_frames + 1

let latch_violation t msg =
  if t.epoch_violation = None then t.epoch_violation <- Some msg

(* The group of epoch [e], with the int [=] rather than the polymorphic
   compare of [List.assoc]: [group_for] runs once per reply sent. *)
let group_of t (e : int) =
  let rec find = function
    | [] -> None
    | (e', g) :: rest -> if e' = e then Some g else find rest
  in
  find t.groups

let group_for t r =
  match group_of t (max 0 t.epoch_of.(r)) with
  | Some g -> g
  | None -> Option.get (group_of t 0)

let faults t r = Instance.faults (t.instance r)
let crashed t r = (faults t r).Bft.Faults.crashed
let instance_halted t r = Instance.halted (t.instance r)
let halt_instance t r = Instance.halt (t.instance r)

(* Instantaneous per-epoch activity: how many replicas of each epoch are
   currently live (instance running, node reachable). The safety oracle
   asserts that at most one epoch ever holds a quorum of these. *)
let epoch_activity t =
  let tbl = Hashtbl.create 7 in
  for g = 0 to t.universe - 1 do
    let e = t.epoch_of.(g) in
    if
      e >= 0
      && (not (crashed t g))
      && (not (instance_halted t g))
      && Overlay.Net.node_alive t.net g
    then
      Hashtbl.replace tbl e
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e))
  done;
  Hashtbl.fold (fun e c acc -> (e, c) :: acc) tbl [] |> List.sort compare

(* Protocol-frame admission: frames are bound to their sender's epoch
   (bare protocol frames are the genesis-epoch encoding), and the
   sender's global node id must hold a rank in that epoch's membership
   (retired and not-yet-admitted ids hold none). *)
let sender_rank t r ~from payload =
  let epoch = match payload with Epoch_frame (e, _) -> e | _ -> 0 in
  if t.epoch_of.(r) <> epoch then begin
    bump_stale_epoch t;
    -1
  end
  else
    match Bft.Tbl.Int.find_opt t.rank_maps epoch with
    | None ->
      bump_stale_epoch t;
      -1
    | Some (_, rank_of) ->
      let rank =
        if from >= 0 && from < Array.length rank_of then rank_of.(from) else -1
      in
      if rank < 0 then bump_stale_epoch t;
      rank

let install_cert t c =
  match Member.Directory.install t.directory c with Ok () | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* State transfer.                                                     *)

(* Serialised master state shipped by a state transfer (exec count +
   every known RTU status, via the SCADA codec) — the byte carrier
   whose chunks charge the transfer's bandwidth. *)
let master_blob master =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "exec:%d;" (Scada.Master.applied_count master));
  List.iter
    (fun rtu ->
      match Scada.Master.last_status master ~rtu with
      | None -> ()
      | Some status ->
        Buffer.add_string b (Scada.Op.encode (Scada.Op.Status_report status)))
    (Scada.Master.known_rtus master);
  Buffer.contents b

(* The f+1-vouched state source over [peers]: each offers a (protocol
   snapshot, master state) pair captured atomically (same simulation
   instant), so a consistent pair digest identifies a consistent joint
   state; the newest vouched pair wins. *)
let vouched_source t ~peers =
  {
    Recovery.State_transfer.peers;
    fetch =
      (fun peer ->
        match t.instance peer with
        | Prime_replica q ->
          Some (Prime.Replica.snapshot q, Scada.Master.clone (t.master peer))
        | Pbft_replica _ -> None);
    digest_of =
      (fun (snap, master) ->
        Cryptosim.Digest.combine
          (Prime.Replica.snapshot_digest snap)
          (Scada.Master.snapshot_digest master));
    newer =
      (fun (a, _) (b, _) ->
        a.Prime.Replica.snap_exec_count > b.Prime.Replica.snap_exec_count);
  }

(* State transfer: adopt a state vouched for by f+1 peers of the
   replica's OWN epoch. Used when a replica returns from proactive
   recovery, when a crashed site is restored, and when a replica falls
   behind the quorum's checkpoints. *)
let resync t r =
  let e = t.epoch_of.(r) in
  match (t.instance r, Member.Directory.cert_of_epoch t.directory e) with
  | Prime_replica prime, Some cert when not (Prime.Replica.halted prime) -> (
    let peers_of_epoch =
      match Bft.Tbl.Int.find_opt t.rank_maps e with
      | Some (members, _) -> Array.to_list members
      | None -> []
    in
    let peers =
      List.filter
        (fun p -> p <> r && t.epoch_of.(p) = e && not (crashed t p))
        peers_of_epoch
    in
    match
      Recovery.State_transfer.select ~f:(Member.Cert.f cert)
        (vouched_source t ~peers)
    with
    | Recovery.State_transfer.Installed (snap, master) ->
      (* Install only a strictly newer snapshot. Re-installing our own
         (or an equal) state is not a harmless no-op: it discards
         committed-but-unapplied slots and pre-order bodies, and a
         leader doing it re-proposes sequence numbers that other
         replicas may already hold committed — a safety hazard. *)
      if
        snap.Prime.Replica.snap_exec_count
        > Bft.Exec_log.length (Prime.Replica.exec_log prime)
      then begin
        Prime.Replica.install_snapshot prime snap;
        t.set_master r master;
        (* Charge the transfer's bandwidth: the adopted state ships as
           wire chunks from a live donor, so recovery storms compete
           with protocol traffic for links. *)
        match peers with
        | [] -> ()
        | donor :: _ ->
          List.iter
            (fun chunk ->
              Send.payload t.send ~src_node:donor ~dst_node:r
                (Transfer_chunk chunk))
            (Recovery.State_transfer.chunk_blob ~xfer_id:r ~chunk_bytes:1024
               (master_blob master))
      end
    | Recovery.State_transfer.No_quorum _ ->
      (* Rare: peers disagree transiently; rejoin from live traffic and
         catch up through slot requests / checkpoints. *)
      ())
  (* Standby or retired (no epoch: no certificate), PBFT, or halted:
     the successor epoch owns catch-up. *)
  | (Prime_replica _ | Pbft_replica _), _ -> ()

(* ------------------------------------------------------------------ *)
(* Epoch cutover machinery.

   A reconfiguration command travels through the ordered stream like
   any SCADA update. Executing it makes every replica of that epoch:
   halt its instance (the in-progress eligibility batch completes, so
   the halt point — the epoch boundary — lands on the same execution
   index everywhere), derive/adopt the successor certificate with the
   boundary stamped in, and restart as a fresh protocol instance over
   the new membership, carrying application state and the exactly-once
   delivery cursors across. The first replica to switch advances the
   shared directory; later switchers verify their boundary against the
   recorded certificate — any disagreement is latched as a violation. *)

let rec ensure_epoch_state t cert ~announcer =
  let e = Member.Cert.epoch cert in
  if not (Bft.Tbl.Int.mem t.rank_maps e) then begin
    let members = Array.of_list (Member.Cert.members cert) in
    let rank_of = Array.make t.universe (-1) in
    Array.iteri
      (fun i g -> if g >= 0 && g < t.universe then rank_of.(g) <- i)
      members;
    Bft.Tbl.Int.replace t.rank_maps e (members, rank_of)
  end;
  if Option.is_none (group_of t e) then
    t.groups <-
      ( e,
        Cryptosim.Threshold.create_group
          ~seed:(Int64.logxor t.seed (Int64.of_int (e * 0x9E3779B9)))
          ~members:(Member.Cert.members cert)
          ~threshold:(Member.Cert.reply_threshold cert) )
      :: t.groups;
  if e > t.cur_epoch then promote_current t cert ~announcer

and promote_current t cert ~announcer =
  let e = Member.Cert.epoch cert in
  let members, _ = Bft.Tbl.Int.find t.rank_maps e in
  t.cur_epoch <- e;
  t.cur_members <- members;
  let group = Option.get (group_of t e) in
  List.iter (fun f -> f group) t.group_listeners;
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.set_quorums t.telemetry
      ~order:(Member.Cert.quorum_size cert)
      ~reply:(Member.Cert.reply_threshold cert);
  t.cutovers <-
    (e, Member.Cert.boundary_exec cert, Sim.Engine.now t.engine) :: t.cutovers;
  List.iter (fun f -> f e) t.epoch_listeners;
  (* Gossip the certificate so every daemon (including dark standby
     nodes, once booted) can audit the chain; install is idempotent. *)
  for peer = 0 to t.universe - 1 do
    if peer <> announcer then
      Send.payload t.send ~src_node:announcer ~dst_node:peer (Cert_frame cert)
  done;
  arm_reconciler t

and arm_reconciler t =
  if not t.reconciler_armed then begin
    t.reconciler_armed <- true;
    ignore
      (Sim.Engine.periodic t.engine ~interval_us:271_000 (fun () ->
           reconcile t)
        : Sim.Engine.timer)
  end

(* Periodic membership reconciliation (armed at the first cutover, so a
   never-reconfigured system schedules nothing): members of the current
   epoch stuck at an older one (or dark standby ids just admitted) are
   caught up through a chunk-gated join; replicas the current epoch
   dropped are halted and their overlay ids retired. *)
and reconcile t =
  let cert = Member.Directory.current t.directory in
  let e = Member.Cert.epoch cert in
  let now = Sim.Engine.now t.engine in
  match Bft.Tbl.Int.find_opt t.rank_maps e with
  | None -> ()
  | Some (_, rank_of) ->
    for g = 0 to t.universe - 1 do
      let is_member = rank_of.(g) >= 0 in
      if is_member then begin
        if t.epoch_of.(g) = e || t.pending_reconfig.(g) <> None then
          t.lag_since.(g) <- -1
        else if t.lag_since.(g) < 0 then t.lag_since.(g) <- now
        else if now - t.lag_since.(g) >= 500_000 then begin_join t g
      end
      else begin
        t.lag_since.(g) <- -1;
        if t.epoch_of.(g) >= 0 && t.epoch_of.(g) < e then retire_replica t g
      end
    done

and retire_replica t g =
  halt_instance t g;
  Overlay.Net.retire_node t.net g;
  t.epoch_of.(g) <- -1;
  t.pending_reconfig.(g) <- None;
  t.lag_since.(g) <- -1

(* Start a joining replica's catch-up: pick a donor state vouched by
   f+1 members of the NEW epoch, ship it as chunks across the overlay,
   and only install once every chunk has arrived (see [join_session]).
   Lost chunks are re-requested under the bounded-backoff ARQ. *)
and begin_join t g =
  let already =
    Hashtbl.fold
      (fun _ s acc -> acc || ((not s.js_done) && s.js_replica = g))
      t.sessions false
  in
  if not already then begin
    let cert = Member.Directory.current t.directory in
    let e = Member.Cert.epoch cert in
    match Bft.Tbl.Int.find_opt t.rank_maps e with
    | None -> ()
    | Some (members, _) ->
      halt_instance t g;
      Overlay.Net.unretire_node t.net g;
      Overlay.Net.restore_node t.net g;
      (faults t g).Bft.Faults.crashed <- false;
      let peers =
        Array.to_list members
        |> List.filter (fun p ->
               p <> g
               && t.epoch_of.(p) = e
               && (not (crashed t p))
               && (not (instance_halted t p))
               && Overlay.Net.node_alive t.net p)
      in
      (match
         Recovery.State_transfer.select ~f:(Member.Cert.f cert)
           (vouched_source t ~peers)
       with
      | Recovery.State_transfer.No_quorum _ ->
        () (* not enough live vouchers yet; the reconciler retries *)
      | Recovery.State_transfer.Installed (snap, master) -> (
        match peers with
        | [] -> ()
        | donor :: _ ->
          let xfer = t.next_xfer in
          t.next_xfer <- xfer + 1;
          let chunks =
            Array.of_list
              (Recovery.State_transfer.chunk_blob ~xfer_id:xfer
                 ~chunk_bytes:1024 (master_blob master))
          in
          let s =
            {
              js_xfer = xfer;
              js_replica = g;
              js_epoch = e;
              js_donor = donor;
              js_snap = snap;
              js_master = master;
              js_chunks = chunks;
              js_received = Array.make (Array.length chunks) false;
              js_done = false;
            }
          in
          Hashtbl.replace t.sessions xfer s;
          Array.iteri
            (fun i c ->
              Send.payload t.send ~src_node:donor ~dst_node:g
                (Transfer_chunk c);
              arm_chunk_timer t xfer i 0)
            chunks))
  end

and arm_chunk_timer t xfer i attempt =
  match
    Recovery.State_transfer.rerequest_delay_us t.arq ~xfer_id:xfer
      ~chunk_index:i ~attempt
  with
  | None ->
    (* Retry budget exhausted: abandon the session; the reconciler
       starts a fresh one (new xfer id, fresh backoff schedule). *)
    Hashtbl.remove t.sessions xfer
  | Some delay ->
    let shard =
      match Hashtbl.find_opt t.sessions xfer with
      | Some s -> t.shard_of s.js_replica
      | None -> 0
    in
    ignore
      (Sim.Engine.schedule ~shard t.engine ~delay_us:delay (fun () ->
           match Hashtbl.find_opt t.sessions xfer with
           | None -> ()
           | Some s ->
             if (not s.js_done) && not s.js_received.(i) then begin
               if Overlay.Net.node_alive t.net s.js_donor then
                 Send.payload t.send ~src_node:s.js_donor
                   ~dst_node:s.js_replica (Transfer_chunk s.js_chunks.(i));
               arm_chunk_timer t xfer i (attempt + 1)
             end)
        : Sim.Engine.timer)

and complete_join t s =
  s.js_done <- true;
  Hashtbl.remove t.sessions s.js_xfer;
  (* Install only if the epoch is still current — otherwise the
     reconciler restarts the join against the newer membership. *)
  if Member.Directory.epoch t.directory = s.js_epoch then
    match Member.Directory.cert_of_epoch t.directory s.js_epoch with
    | None -> ()
    | Some cert ->
      t.set_master s.js_replica s.js_master;
      install_member_instance t s.js_replica ~cert ~snap:s.js_snap

(* Replace replica [r]'s instance with a fresh one for [cert]'s epoch,
   seeded from [snap] (a boundary-carried snapshot on cutover, a donor
   snapshot on join), and start it. *)
and install_member_instance t r ~cert ~snap =
  let e = Member.Cert.epoch cert in
  ensure_epoch_state t cert ~announcer:r;
  let members, rank_of = Bft.Tbl.Int.find t.rank_maps e in
  if rank_of.(r) < 0 then retire_replica t r
  else begin
    let inst =
      t.make_member_instance ~cert ~members ~rank:rank_of.(r) ~global:r
    in
    (match inst with
    | Prime_replica p -> Prime.Replica.install_snapshot p snap
    | Pbft_replica _ -> ());
    t.set_instance r inst;
    t.epoch_of.(r) <- e;
    t.lag_since.(r) <- -1;
    Instance.start inst
  end

(* The deferred half of a cutover (scheduled at delay 0 from the
   execute callback, so the boundary batch has fully drained): stamp
   the boundary, advance or verify the directory, and switch. *)
and switch_replica t r =
  match t.pending_reconfig.(r) with
  | None -> ()
  | Some (e, actions) -> (
    t.pending_reconfig.(r) <- None;
    let boundary = Bft.Exec_log.length (Instance.exec_log (t.instance r)) in
    match Member.Directory.cert_of_epoch t.directory e with
    | None ->
      latch_violation t (Printf.sprintf "switch: unknown epoch %d" e)
    | Some prev -> (
      let next_result =
        match Member.Directory.cert_of_epoch t.directory (e + 1) with
        | Some existing ->
          (* A peer already advanced the chain: our independently
             reached boundary must agree with the recorded one. *)
          if Member.Cert.boundary_exec existing = boundary then Ok existing
          else
            Error
              (Printf.sprintf
                 "epoch %d boundary disagreement: replica %d halted at %d, \
                  certificate records %d"
                 (e + 1) r boundary
                 (Member.Cert.boundary_exec existing))
        | None ->
          Member.Directory.advance t.directory actions
            ~signers:(Member.Cert.members prev) ~boundary_exec:boundary
      in
      match next_result with
      | Error msg -> latch_violation t msg
      | Ok cert -> (
        match t.instance r with
        | Pbft_replica _ -> ()
        | Prime_replica p ->
          (* Carry execution state and delivery cursors across the
             boundary; the pre-order space (cursor, matrix, view) is
             fresh — the new epoch renumbers from scratch. *)
          let old = Prime.Replica.snapshot p in
          let n_new = Member.Cert.n cert in
          let snap =
            {
              old with
              Prime.Replica.snap_cursor = Prime.Matrix.empty_vector ~n:n_new;
              snap_last_applied = 0;
              snap_cum_matrix = Prime.Matrix.empty ~n:n_new;
              snap_view = 0;
            }
          in
          install_member_instance t r ~cert ~snap)))

(* Executing an ordered [Op.Reconfig]: validate it against the
   replica's own epoch certificate (a malformed or inapplicable command
   is a deterministic no-op — every replica rejects it identically),
   then halt and schedule the switch. *)
let note_reconfig t r ~payload =
  if t.pending_reconfig.(r) = None && t.epoch_of.(r) >= 0 then
    match Member.Reconfig.decode payload with
    | Error _ -> ()
    | Ok actions -> (
      let e = t.epoch_of.(r) in
      match Member.Directory.cert_of_epoch t.directory e with
      | None -> ()
      | Some cert ->
        let in_universe =
          List.for_all
            (function
              | Member.Reconfig.Add_site { members; _ } ->
                List.for_all (fun m -> m >= 0 && m < t.universe) members
              | Member.Reconfig.Set_resilience _
              | Member.Reconfig.Remove_site _ | Member.Reconfig.Promote _ ->
                true)
            actions
        in
        if in_universe then (
          (* Dry-run against the epoch's own certificate: boundary
             and signers are stand-ins, only action semantics are
             checked here. *)
          match
            Member.Reconfig.apply cert actions
              ~signers:(Member.Cert.members cert)
              ~boundary_exec:(Member.Cert.boundary_exec cert)
          with
          | Error _ -> ()
          | Ok _ ->
            t.pending_reconfig.(r) <- Some (e, actions);
            halt_instance t r;
            ignore
              (Sim.Engine.schedule ~shard:(t.shard_of r) t.engine ~delay_us:0
                 (fun () -> switch_replica t r)
                : Sim.Engine.timer)))

let handle_transfer_chunk t r (c : Recovery.State_transfer.chunk) =
  match Hashtbl.find_opt t.sessions c.Recovery.State_transfer.xfer_id with
  | None ->
    (* Legacy resync carrier (or a stale session): the frames exist to
       charge the transfer's bandwidth; installation was synchronous. *)
    ()
  | Some s ->
    if (not s.js_done) && s.js_replica = r then begin
      let i = c.Recovery.State_transfer.chunk_index in
      if i >= 0 && i < Array.length s.js_received then begin
        s.js_received.(i) <- true;
        if Array.for_all Fun.id s.js_received then complete_join t s
      end
    end
