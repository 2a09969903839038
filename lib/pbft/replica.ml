open Bft

type config = {
  quorum : Quorum.t;
  epoch : int;
      (* membership epoch this instance belongs to; tagged/filtered by
         the deployment layer (see Prime.Replica) *)
  request_timeout_us : int;
  viewchange_timeout_us : int;
  checkpoint_interval : int;
  watchdog_interval_us : int;
}

let default_config quorum =
  {
    quorum;
    epoch = 0;
    request_timeout_us = 2_000_000;
    viewchange_timeout_us = 4_000_000;
    checkpoint_interval = 128;
    watchdog_interval_us = 250_000;
  }

(* A vote that arrived before the pre-prepare, waiting to be counted. *)
type early = {
  voter : Types.replica;
  commit : bool;
  early_view : Types.view;
  early_digest : Cryptosim.Digest.t;
}

type slot = {
  mutable slot_view : Types.view;
  mutable proposal : Msg.proposal option;
  mutable digest : Cryptosim.Digest.t option;
  mutable prepares : Replica_set.t;
  mutable commits : Replica_set.t;
  (* At most one prepare and one commit per voter, the latest. *)
  mutable early : early list;
  mutable prepared : bool;
  mutable committed : bool;
}

let buffer_vote s e =
  s.early <-
    (match s.early with
    | [] -> [ e ]
    | held ->
      e :: List.filter (fun o -> o.voter <> e.voter || o.commit <> e.commit) held)

type mode = Normal | View_changing of { target : Types.view; since_us : int }

(* A match rather than [t.mode = Normal], the polymorphic compare, on
   the per-message path. *)
let normal_mode = function Normal -> true | View_changing _ -> false

type t = {
  config : config;
  env : Msg.t Env.t;
  execute : Types.seqno -> Update.t -> unit;
  faults : Faults.t;
  log : Exec_log.t;
  delivery : Delivery.t;
  slots : slot Tbl.Int.t;
  pending : (Types.client * int, Update.t * int) Hashtbl.t;
  mutable assigned : (Types.client * int, Types.seqno) Hashtbl.t;
  mutable view : Types.view;
  mutable mode : mode;
  mutable next_seq : Types.seqno;
  mutable last_executed : Types.seqno;
  mutable stable_seq : Types.seqno;
  vc_votes :
    ( Types.view,
      (Types.replica, Types.seqno * Msg.prepared_entry list) Hashtbl.t )
    Hashtbl.t;
  (* Voters per (sequence, chain); entries at or below the stable
     checkpoint are dropped when it advances. *)
  ckpt_votes : (Types.seqno * Cryptosim.Digest.t, Replica_set.t) Hashtbl.t;
  mutable running : bool;
  (* One-way stop at an epoch boundary; see Prime.Replica.halt. *)
  mutable halted : bool;
}

let faults t = t.faults
let view t = t.view
let exec_log t = t.log
let halted t = t.halted
let halt t = t.halted <- true

let n t = t.config.quorum.Quorum.n
let quorum_size t = Quorum.quorum_size t.config.quorum
let leader_of t view = Types.leader_of ~n:(n t) view
let is_leader t = leader_of t t.view = t.env.Env.self && not t.faults.Faults.crashed

let create config env ~execute =
  {
    config;
    env;
    execute;
    faults = Faults.honest ();
    log = Exec_log.create ();
    delivery = Delivery.create ();
    slots = Tbl.Int.create 997;
    pending = Hashtbl.create 97;
    assigned = Hashtbl.create 97;
    view = 0;
    mode = Normal;
    next_seq = 1;
    last_executed = 0;
    stable_seq = 0;
    vc_votes = Hashtbl.create 17;
    ckpt_votes = Hashtbl.create 17;
    running = false;
    halted = false;
  }

(* ------------------------------------------------------------------ *)
(* Sending through the fault filter.                                   *)

let send_to t dst msg =
  if
    (not t.halted)
    && (not t.faults.Faults.crashed)
    && (not t.faults.Faults.silent)
    && not (t.faults.Faults.drop_to dst)
  then t.env.Env.send dst msg

let broadcast t msg = List.iter (fun r -> send_to t r msg) (Env.others t.env)

let slot t seq =
  match Tbl.Int.find_opt t.slots seq with
  | Some s -> s
  | None ->
    let s =
      {
        slot_view = -1;
        proposal = None;
        digest = None;
        prepares = Replica_set.empty;
        commits = Replica_set.empty;
        early = [];
        prepared = false;
        committed = false;
      }
    in
    Tbl.Int.replace t.slots seq s;
    s

(* ------------------------------------------------------------------ *)
(* Ordering pipeline: execute committed slots in sequence order, emit
   checkpoints, track stability.                                       *)

let rec try_execute t =
  let seq = t.last_executed + 1 in
  match Tbl.Int.find_opt t.slots seq with
  | Some s when s.committed ->
    t.last_executed <- seq;
    (match s.proposal with
    | Some { Msg.updates; _ } ->
      List.iter
        (fun u ->
          Hashtbl.remove t.pending (Update.key u);
          (* Exactly-once, per-client-FIFO release. *)
          List.iter
            (fun released ->
              Hashtbl.remove t.pending (Update.key released);
              ignore (Exec_log.append t.log released : int);
              t.execute seq released)
            (Delivery.offer t.delivery u))
        updates
    | None -> ());
    if seq mod t.config.checkpoint_interval = 0 then begin
      let chain = Exec_log.chain_digest t.log in
      broadcast t (Msg.Checkpoint { seq; chain });
      record_checkpoint_vote t ~from:t.env.Env.self ~seq ~chain
    end;
    try_execute t
  | Some _ | None -> ()

and record_checkpoint_vote t ~from ~seq ~chain =
  let key = (seq, chain) in
  let voters =
    Replica_set.add
      (Option.value (Hashtbl.find_opt t.ckpt_votes key) ~default:Replica_set.empty)
      from
  in
  Hashtbl.replace t.ckpt_votes key voters;
  if Replica_set.cardinal voters >= quorum_size t && seq > t.stable_seq then begin
    t.stable_seq <- seq;
    let stale =
      Tbl.Int.fold
        (fun s _ acc ->
          if s <= t.stable_seq && s <= t.last_executed then s :: acc else acc)
        t.slots []
    in
    List.iter (Tbl.Int.remove t.slots) stale;
    (* A certificate at or below the stable one can no longer advance
       it, which is all a certificate does here. *)
    Hashtbl.filter_map_inplace
      (fun (s, _) v -> if s <= seq then None else Some v)
      t.ckpt_votes
  end

let retained_checkpoints t = Hashtbl.length t.ckpt_votes

let rec maybe_prepared t seq =
  let s = slot t seq in
  if (not s.prepared) && Option.is_some s.proposal
     && Replica_set.cardinal s.prepares >= quorum_size t
  then begin
    s.prepared <- true;
    match s.digest with
    | None -> ()
    | Some digest ->
      broadcast t (Msg.Commit { view = s.slot_view; seq; digest });
      s.commits <- Replica_set.add s.commits t.env.Env.self;
      maybe_committed t seq
  end

and maybe_committed t seq =
  let s = slot t seq in
  if (not s.committed) && s.prepared
     && Replica_set.cardinal s.commits >= quorum_size t
  then begin
    s.committed <- true;
    try_execute t
  end

(* ------------------------------------------------------------------ *)
(* Pre-prepare acceptance (both normal case and new-view replay).      *)

let accept_preprepare t ~view ~(proposal : Msg.proposal) =
  let seq = proposal.Msg.seq in
  if seq > t.last_executed then begin
    let s = slot t seq in
    let fresh = Option.is_none s.proposal || s.slot_view < view in
    if fresh then begin
      s.slot_view <- view;
      s.proposal <- Some proposal;
      let digest = Msg.proposal_digest proposal in
      s.digest <- Some digest;
      s.commits <- Replica_set.empty;
      s.prepared <- false;
      List.iter
        (fun (u : Update.t) ->
          if
            (not (Hashtbl.mem t.pending (Update.key u)))
            && not (Delivery.seen t.delivery (Update.key u))
          then Hashtbl.replace t.pending (Update.key u) (u, t.env.Env.now_us ());
          if Telemetry.Sink.enabled t.env.Env.telemetry then
            Telemetry.Sink.update_body t.env.Env.telemetry
              ~trace:
                (Telemetry.Span.trace_id ~client:u.Update.client
                   ~seq:u.Update.client_seq)
              ~replica:t.env.Env.self
              ~now:(t.env.Env.now_us ()))
        proposal.Msg.updates;
      (* The pre-prepare stands for the proposer's prepare vote; our own
         prepare vote is implicit in the broadcast below. *)
      s.prepares <-
        Replica_set.(add (add empty (leader_of t view)) t.env.Env.self);
      broadcast t (Msg.Prepare { view; seq; digest });
      (* Count any votes that raced ahead of the pre-prepare. *)
      List.iter
        (fun e ->
          if e.early_view = view && Cryptosim.Digest.equal e.early_digest digest
          then
            if e.commit then s.commits <- Replica_set.add s.commits e.voter
            else s.prepares <- Replica_set.add s.prepares e.voter)
        s.early;
      if s.early != [] then s.early <- [];
      maybe_prepared t seq
    end
  end

(* ------------------------------------------------------------------ *)
(* Leader proposal path (with Byzantine hooks).                        *)

let send_proposal t (proposal : Msg.proposal) =
  let proposal_view = t.view in
  let send_preprepare () =
    if t.faults.Faults.equivocate then begin
      let twin (u : Update.t) =
        Update.create ~client:u.Update.client ~client_seq:u.Update.client_seq
          ~operation:"equivocation-twin" ~submitted_us:u.Update.submitted_us
      in
      let twins =
        { proposal with Msg.updates = List.map twin proposal.Msg.updates }
      in
      List.iter
        (fun r ->
          let p = if r mod 2 = 0 then proposal else twins in
          send_to t r (Msg.Preprepare { view = proposal_view; proposal = p }))
        (Env.others t.env)
    end
    else broadcast t (Msg.Preprepare { view = proposal_view; proposal });
    accept_preprepare t ~view:proposal_view ~proposal
  in
  let delay = t.faults.Faults.proposal_delay_us in
  if delay > 0 then
    ignore
      (t.env.Env.set_timer delay (fun () ->
           if t.view = proposal_view && is_leader t then send_preprepare ())
        : Sim.Engine.timer)
  else send_preprepare ()

let propose t update =
  let key = Update.key update in
  if
    (not (Hashtbl.mem t.assigned key))
    && not (Delivery.seen t.delivery key)
  then begin
    Hashtbl.replace t.assigned key t.next_seq;
    (* Orderable milestone: the leader takes the update up for proposal
       here, *before* any (possibly malicious) proposal delay — so an
       E4-style delayed leader inflates the Ordering phase, which is
       exactly where the attack bites. *)
    if Telemetry.Sink.enabled t.env.Env.telemetry then
      Telemetry.Sink.update_orderable t.env.Env.telemetry
        ~trace:
          (Telemetry.Span.trace_id ~client:update.Update.client
             ~seq:update.Update.client_seq)
        ~now:(t.env.Env.now_us ());
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    send_proposal t { Msg.seq; updates = [ update ] }
  end

(* ------------------------------------------------------------------ *)
(* View changes.                                                       *)

(* Sorted by slot, so the report does not depend on the table's
   layout. *)
let prepared_entries t =
  Tbl.Int.fold
    (fun seq s acc ->
      if s.prepared && seq > t.stable_seq then
        match s.proposal with
        | Some p ->
          {
            Msg.entry_seq = seq;
            entry_view = s.slot_view;
            entry_updates = p.Msg.updates;
          }
          :: acc
        | None -> acc
      else acc)
    t.slots []
  |> List.sort (fun a b -> Int.compare a.Msg.entry_seq b.Msg.entry_seq)

let rec start_view_change t target =
  let should =
    target > t.view
    &&
    match t.mode with
    | View_changing { target = cur; _ } -> target > cur
    | Normal -> true
  in
  if should then begin
    t.mode <- View_changing { target; since_us = t.env.Env.now_us () };
    let prepared = prepared_entries t in
    broadcast t
      (Msg.Viewchange { new_view = target; last_stable = t.stable_seq; prepared });
    record_vc_vote t ~from:t.env.Env.self ~target ~last_stable:t.stable_seq
      ~prepared
  end

and record_vc_vote t ~from ~target ~last_stable ~prepared =
  if target > t.view then begin
    let votes =
      match Hashtbl.find_opt t.vc_votes target with
      | Some v -> v
      | None ->
        let v = Hashtbl.create 7 in
        Hashtbl.replace t.vc_votes target v;
        v
    in
    Hashtbl.replace votes from (last_stable, prepared);
    (* Liveness amplification: join any view change backed by f+1. *)
    if Hashtbl.length votes >= Quorum.reply_threshold t.config.quorum then
      start_view_change t target;
    if
      Hashtbl.length votes >= quorum_size t
      && leader_of t target = t.env.Env.self
    then install_new_view t target votes
  end

and install_new_view t target votes =
  let merged : (Types.seqno, Msg.prepared_entry) Hashtbl.t =
    Hashtbl.create 97
  in
  let max_stable = ref t.stable_seq in
  let max_seq = ref t.last_executed in
  Hashtbl.iter
    (fun _from (last_stable, prepared) ->
      if last_stable > !max_stable then max_stable := last_stable;
      List.iter
        (fun (e : Msg.prepared_entry) ->
          if e.Msg.entry_seq > !max_seq then max_seq := e.Msg.entry_seq;
          match Hashtbl.find_opt merged e.Msg.entry_seq with
          | Some prev when prev.Msg.entry_view >= e.Msg.entry_view -> ()
          | Some _ | None -> Hashtbl.replace merged e.Msg.entry_seq e)
        prepared)
    votes;
  (* Re-propose everything above the stable checkpoint — including
     slots this leader already executed; replicas that executed them
     skip the replay, replicas that missed the commits re-run them
     with identical content. *)
  let start = !max_stable in
  let proposals =
    List.init
      (max 0 (!max_seq - start))
      (fun i ->
        let seq = start + 1 + i in
        match Hashtbl.find_opt merged seq with
        | Some e -> { Msg.seq; updates = e.Msg.entry_updates }
        | None -> { Msg.seq; updates = [] })
  in
  t.view <- target;
  t.mode <- Normal;
  t.next_seq <- !max_seq + 1;
  t.assigned <- Hashtbl.create 97;
  broadcast t (Msg.Newview { view = target; proposals; stable_seq = !max_stable });
  List.iter (fun p -> accept_preprepare t ~view:target ~proposal:p) proposals;
  let pending_now = Hashtbl.fold (fun _ (u, _) acc -> u :: acc) t.pending [] in
  List.iter (fun u -> propose t u) pending_now

let adopt_new_view t ~view ~proposals =
  if view > t.view then begin
    t.view <- view;
    t.mode <- Normal;
    t.assigned <- Hashtbl.create 97;
    List.iter (fun p -> accept_preprepare t ~view ~proposal:p) proposals;
    (* Give the new leader a full timeout for everything pending. *)
    let now = t.env.Env.now_us () in
    let entries = Hashtbl.fold (fun k (u, _) acc -> (k, u) :: acc) t.pending [] in
    List.iter (fun (k, u) -> Hashtbl.replace t.pending k (u, now)) entries;
    let leader = leader_of t t.view in
    if leader <> t.env.Env.self then
      List.iter
        (fun (_, u) ->
          send_to t leader (Msg.Request { update = u; broadcast = false }))
        entries
  end

(* ------------------------------------------------------------------ *)
(* Watchdog: request timeouts and view-change escalation.              *)

let oldest_pending_age t =
  let now = t.env.Env.now_us () in
  Hashtbl.fold (fun _ (_, since) acc -> max acc (now - since)) t.pending 0

let watchdog t =
  if (not t.halted) && not t.faults.Faults.crashed then
    match t.mode with
    | View_changing { target; since_us } ->
      if t.env.Env.now_us () - since_us > t.config.viewchange_timeout_us then
        start_view_change t (target + 1)
    | Normal ->
      if
        Hashtbl.length t.pending > 0
        && oldest_pending_age t > t.config.request_timeout_us
      then begin
        (* Retransmit starved requests to everyone so every correct
           replica observes the starvation and joins the view change
           (the role the client's broadcast retransmission plays in
           PBFT). *)
        Hashtbl.iter
          (fun _ (u, _) ->
            broadcast t (Msg.Request { update = u; broadcast = true }))
          t.pending;
        start_view_change t (t.view + 1)
      end

let start t =
  if not t.running then begin
    t.running <- true;
    let rec arm () =
      ignore
        (t.env.Env.set_timer t.config.watchdog_interval_us (fun () ->
             if not t.halted then begin
               watchdog t;
               arm ()
             end)
          : Sim.Engine.timer)
    in
    arm ()
  end

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

let submit t update =
  if (not t.halted) && not t.faults.Faults.crashed then begin
    let key = Update.key update in
    if not (Delivery.seen t.delivery key) then begin
      if not (Hashtbl.mem t.pending key) then
        Hashtbl.replace t.pending key (update, t.env.Env.now_us ());
      if is_leader t then propose t update
      else
        send_to t (leader_of t t.view) (Msg.Request { update; broadcast = false })
    end
  end

let handle t ~from msg =
  if (not t.halted) && not t.faults.Faults.crashed then
    match msg with
    | Msg.Request { update; broadcast = _ } -> submit t update
    | Msg.Preprepare { view; proposal } ->
      (* No ordering participation while view-changing: the prepared
         set reported in our view-change vote must stay frozen. *)
      if normal_mode t.mode && view = t.view && from = leader_of t view then
        accept_preprepare t ~view ~proposal
    | Msg.Prepare { view; seq; digest } ->
      if normal_mode t.mode && seq > t.last_executed then begin
        let s = slot t seq in
        match s.digest with
        | Some d when view = s.slot_view ->
          if Cryptosim.Digest.equal d digest then begin
            s.prepares <- Replica_set.add s.prepares from;
            maybe_prepared t seq
          end
        | Some _ | None ->
          buffer_vote s
            { voter = from; commit = false; early_view = view; early_digest = digest }
      end
    | Msg.Commit { view; seq; digest } ->
      if normal_mode t.mode && seq > t.last_executed then begin
        let s = slot t seq in
        match s.digest with
        | Some d when view = s.slot_view && Cryptosim.Digest.equal d digest ->
          s.commits <- Replica_set.add s.commits from;
          maybe_committed t seq
        | Some _ | None ->
          buffer_vote s
            { voter = from; commit = true; early_view = view; early_digest = digest }
      end
    | Msg.Checkpoint { seq; chain } -> record_checkpoint_vote t ~from ~seq ~chain
    | Msg.Viewchange { new_view; last_stable; prepared } ->
      record_vc_vote t ~from ~target:new_view ~last_stable ~prepared
    | Msg.Newview { view; proposals; stable_seq = _ } ->
      if from = leader_of t view then adopt_new_view t ~view ~proposals
