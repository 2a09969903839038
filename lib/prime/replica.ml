open Bft

type config = {
  quorum : Quorum.t;
  epoch : int;
      (* membership epoch this instance belongs to; the instance itself
         never compares epochs — the deployment layer wraps and filters
         frames — but carrying the epoch here keeps every quorum check
         attributable to one certificate *)
  aru_interval_us : int;
  proposal_interval_us : int;
  tat_threshold_us : int;
  tat_violations_to_suspect : int;
  viewchange_timeout_us : int;
  checkpoint_interval : int;
  watchdog_interval_us : int;
  recon_retry_us : int;
  batch : Batch.policy;
}

let default_config quorum =
  {
    quorum;
    epoch = 0;
    aru_interval_us = 5_000;
    proposal_interval_us = 10_000;
    tat_threshold_us = 150_000;
    tat_violations_to_suspect = 3;
    viewchange_timeout_us = 1_000_000;
    checkpoint_interval = 128;
    watchdog_interval_us = 25_000;
    recon_retry_us = 100_000;
    batch = Batch.singleton;
  }

(* A slot's lifecycle (DESIGN.md §6, note 8). [view] is the view of
   the proposal this replica voted for; a slot adopted by catch-up keeps
   the view it was voting in, or -1. Only [set_phase] writes a phase,
   and it never leaves [Committed]: a decided matrix is final. A slot
   is applied when it is [Committed] and [seq <= last_applied]. *)
type phase =
  | Open
  | Voting of {
      view : Types.view; matrix : Matrix.t; digest : Cryptosim.Digest.t;
      prepared : bool;
    }
  | Committed of {
      view : Types.view; matrix : Matrix.t; digest : Cryptosim.Digest.t;
    }

(* A vote that arrived ahead of the matching proposal. *)
type early = {
  voter : Types.replica;
  commit : bool;
  early_view : Types.view;
  early_digest : Cryptosim.Digest.t;
}

type slot = {
  mutable phase : phase;
  (* Votes for the [Voting] view and digest. *)
  mutable prepares : Replica_set.t;
  mutable commits : Replica_set.t;
  (* At most one prepare and one commit per voter, the latest; empty
     unless votes outran the pre-prepare. *)
  mutable early : early list;
  (* Catch-up repliers per matrix digest, counted until the slot
     commits. *)
  mutable replies : (Cryptosim.Digest.t * Replica_set.t) list;
}

let vote_tally s = Replica_set.cardinal s.prepares + Replica_set.cardinal s.commits

(* Keep [voter]'s latest early vote of each kind. *)
let buffer_vote s e =
  s.early <-
    (match s.early with
    | [] -> [ e ]
    | held ->
      e :: List.filter (fun o -> o.voter <> e.voter || o.commit <> e.commit) held)

(* Add [from] to the repliers for [digest]; the updated set. *)
let add_reply s digest from =
  let same (d, _) = Cryptosim.Digest.equal d digest in
  let held =
    Option.fold ~none:Replica_set.empty ~some:snd (List.find_opt same s.replies)
  in
  let v = Replica_set.add held from in
  s.replies <- (digest, v) :: List.filter (fun e -> not (same e)) s.replies;
  v

let set_phase s phase =
  match s.phase with Committed _ -> () | Open | Voting _ -> s.phase <- phase

type mode = Normal | View_changing of { target : Types.view; since_us : int }

(* A match rather than [t.mode = Normal], the polymorphic compare, on
   the per-message path. *)
let normal_mode = function Normal -> true | View_changing _ -> false

type tat_probe = { target_total : int; sent_us : int }

type snapshot = {
  snap_exec_count : int;
  snap_chain : Cryptosim.Digest.t;
  snap_cursor : Matrix.vector;
  snap_last_applied : Types.seqno;
  snap_cum_matrix : Matrix.t;
  snap_view : Types.view;
  snap_delivery : Delivery.state;
}

type t = {
  config : config;
  (* --- live knobs (runtime tuning plane) --- *)
  (* Initialised from [config]; the corresponding [config] fields are
     never read after [create]. Hot-swapped by the control layer via
     the [set_*] entry points below. *)
  mutable tat_threshold_us : int;
  mutable tat_violations_to_suspect : int;
  env : Msg.t Env.t;
  execute : int -> Update.t -> unit;
  faults : Faults.t;
  log : Exec_log.t;
  delivery : Delivery.t;
  (* --- pre-ordering --- *)
  mutable po_next_seq : int;  (* own origin counter; survives recovery *)
  po_acc : Update.t Batch.acc;
      (* own submissions awaiting a Po_batch flush (size/deadline) *)
  po_store : Update.t Tbl.Pair.t;
  mutable recv : Matrix.vector;  (* contiguous received per origin *)
  mutable rows : Matrix.t;  (* latest reported vector per replica *)
  mutable aru_dirty : bool;
  mutable aru_heartbeat : int;
  (* --- ordering --- *)
  slots : slot Tbl.Int.t;
  mutable view : Types.view;
  mutable mode : mode;
  mutable next_seq : Types.seqno;  (* leader: next proposal slot *)
  mutable last_applied : Types.seqno;
  mutable cum_matrix : Matrix.t;
  mutable cursor : Matrix.vector;  (* per-origin executed cursor *)
  mutable last_proposed : Matrix.t;
  mutable proposal_heartbeat : int;
  (* --- execution stall / reconciliation --- *)
  mutable stalled_on : (Types.replica * int) option;
  mutable last_recon_us : int;
  mutable stuck : Types.seqno * int * int;  (* slot asked for, tally, since *)
  mutable last_repair_us : int;
      (* last leader re-broadcast of lost pre-prepares *)
  mutable last_po_resend_us : int;
      (* last re-broadcast of own unacknowledged pre-orders *)
  mutable po_stall : int * int;  (* own quorum ack, unmoved since *)
  mutable max_seq_seen : Types.seqno;
      (* highest ordering sequence referenced by any peer message;
         evidence of slots we may have missed entirely *)
  mutable last_apply_us : int;
  (* --- TAT / suspicion --- *)
  pending_tats : tat_probe Queue.t;
  mutable frontier : Matrix.vector;
      (* pre-order frontier whose ordering progress we are timing *)
  mutable frontier_since_us : int;
  mutable tat_violations : int;
  mutable max_tat_us : int;
  mutable suspected_view : Types.view;  (* highest view we suspected *)
  suspects : Replica_set.t Tbl.Int.t;
  (* --- view change --- *)
  (* Reports per target view, per sender. The inner tables stay
     [Hashtbl]s: [install_new_view] merges the reports in their order. *)
  vc_votes :
    (Types.replica, Types.seqno * Msg.prepared_entry list) Hashtbl.t Tbl.Int.t;
  (* Evidence of higher views: a reconnecting replica that missed a
     Newview learns the installed view once f+1 distinct peers send
     ordering messages tagged with it. *)
  view_evidence : Replica_set.t Tbl.Int.t;
  (* --- checkpoints / catch-up --- *)
  (* Voters per (execution count, chain); entries below the stable
     checkpoint are dropped when it advances. *)
  ckpt_votes : (int * Cryptosim.Digest.t, Replica_set.t) Hashtbl.t;
  mutable stable_exec : int;
  mutable on_fall_behind : unit -> unit;
  mutable on_apply : Types.seqno -> Cryptosim.Digest.t -> unit;
  mutable last_fall_behind_us : int;
  last_heard_us : int array; (* per peer: when we last received anything *)
  mutable running : bool;
  (* Epoch cutover: a halted instance has executed its final update (the
     boundary) and must neither send, receive, execute, nor re-arm its
     timers again.  Halting is one-way; the successor epoch runs in a
     fresh instance. *)
  mutable halted : bool;
}

let n t = t.config.quorum.Quorum.n
let quorum_size t = Quorum.quorum_size t.config.quorum
let leader_of t view = Types.leader_of ~n:(n t) view
let is_leader t = leader_of t t.view = t.env.Env.self

let faults t = t.faults
let view t = t.view
let exec_log t = t.log
let max_tat_us t = t.max_tat_us
let suspected t = t.suspected_view >= t.view
let set_on_fall_behind t f = t.on_fall_behind <- f
let set_on_apply t f = t.on_apply <- f
let halted t = t.halted
let live t = (not t.halted) && not t.faults.Faults.crashed

(* Stop this instance at the epoch boundary.  Callable from inside the
   [execute] callback: the current eligibility batch still finishes
   (its release is agreed, so the boundary execution count is
   deterministic across replicas), after which no further slot, timer,
   send or receive is processed. *)
let halt t = t.halted <- true

(* Peers this replica has not heard from within [threshold_us]
   (self excluded); input to accusation-based reactive recovery. *)
let unresponsive t ~threshold_us =
  let now = t.env.Env.now_us () in
  List.filter
    (fun r -> r <> t.env.Env.self && now - t.last_heard_us.(r) > threshold_us)
    (List.init (n t) Fun.id)

let create config env ~execute =
  let nn = config.quorum.Quorum.n in
  {
    config;
    tat_threshold_us = config.tat_threshold_us;
    tat_violations_to_suspect = config.tat_violations_to_suspect;
    env;
    execute;
    faults = Faults.honest ();
    log = Exec_log.create ();
    delivery = Delivery.create ();
    po_next_seq = 1;
    po_acc = Batch.acc config.batch;
    po_store = Tbl.Pair.create 4096;
    recv = Matrix.empty_vector ~n:nn;
    rows = Matrix.empty ~n:nn;
    aru_dirty = false;
    aru_heartbeat = 0;
    slots = Tbl.Int.create 997;
    view = 0;
    mode = Normal;
    next_seq = 1;
    last_applied = 0;
    cum_matrix = Matrix.empty ~n:nn;
    cursor = Matrix.empty_vector ~n:nn;
    last_proposed = Matrix.empty ~n:nn;
    proposal_heartbeat = 0;
    stalled_on = None;
    last_recon_us = 0;
    stuck = (0, 0, 0);
    last_repair_us = 0;
    last_po_resend_us = 0;
    po_stall = (0, 0);
    max_seq_seen = 0;
    last_apply_us = 0;
    pending_tats = Queue.create ();
    frontier = Matrix.empty_vector ~n:nn;
    frontier_since_us = 0;
    tat_violations = 0;
    max_tat_us = 0;
    suspected_view = -1;
    suspects = Tbl.Int.create 7;
    vc_votes = Tbl.Int.create 7;
    view_evidence = Tbl.Int.create 7;
    ckpt_votes = Hashtbl.create 17;
    stable_exec = 0;
    on_fall_behind = (fun () -> ());
    on_apply = (fun _ _ -> ());
    last_fall_behind_us = -1_000_000_000;
    last_heard_us = Array.make nn 0;
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

(* ------------------------------------------------------------------ *)
(* Pre-ordering: receive bodies, advance the cumulative vector.        *)

let vector_total v = Array.fold_left ( + ) 0 v

let store_body t ~origin ~po_seq update =
  let key = (origin, po_seq) in
  if not (Tbl.Pair.mem t.po_store key) then begin
    Tbl.Pair.replace t.po_store key update;
    (* Pre-order milestone: the order-quorum-th distinct replica to
       store this body makes the update orderable (sink-side count). *)
    if Telemetry.Sink.enabled t.env.Env.telemetry then
      Telemetry.Sink.update_body t.env.Env.telemetry
        ~trace:
          (Telemetry.Span.trace_id ~client:update.Update.client
             ~seq:update.Update.client_seq)
        ~replica:t.env.Env.self
        ~now:(t.env.Env.now_us ());
    (* Advance the contiguous cursor for this origin. *)
    let advanced = ref false in
    while Tbl.Pair.mem t.po_store (origin, t.recv.(origin) + 1) do
      t.recv.(origin) <- t.recv.(origin) + 1;
      advanced := true
    done;
    if !advanced then begin
      t.aru_dirty <- true;
      (* Our own row of the matrix is always our own vector. *)
      t.rows.(t.env.Env.self) <-
        Matrix.merge_vector t.rows.(t.env.Env.self) t.recv
    end;
    !advanced
  end
  else false

(* ------------------------------------------------------------------ *)
(* Execution: apply committed slots in order; each slot's cumulative
   matrix yields an eligibility vector; newly eligible updates execute
   in deterministic (origin, po_seq) order.                            *)

(* Add [from] to the voter set filed under [view]; the updated set. *)
let add_voter tbl view from =
  let v =
    Replica_set.add
      (Option.value (Tbl.Int.find_opt tbl view) ~default:Replica_set.empty)
      from
  in
  Tbl.Int.replace tbl view v;
  v

let slot t seq =
  match Tbl.Int.find_opt t.slots seq with
  | Some s -> s
  | None ->
    let s =
      { phase = Open; prepares = Replica_set.empty; commits = Replica_set.empty;
        early = []; replies = [] }
    in
    Tbl.Int.replace t.slots seq s;
    s

let stalled_at t ~origin ~po_seq =
  match t.stalled_on with
  | Some (o, p) -> o = origin && p = po_seq
  | None -> false

let rec drain_exec t =
  let seq = t.last_applied + 1 in
  match Tbl.Int.find_opt t.slots seq with
  | Some { phase = Committed { matrix = m; digest; _ }; _ } ->
    let merged = Matrix.merge t.cum_matrix m in
    let elig = Matrix.eligible merged ~threshold:(quorum_size t) in
    (* Execute every newly eligible update, origin-major order. *)
    let stalled = ref false in
    let origin = ref 0 in
    (* [halted] can flip mid-loop (the [execute] callback halts at an
       epoch boundary); the current Delivery.offer batch completes —
       its release is agreed, so every replica's boundary execution
       count lands on the same index — and then the drain stops
       without touching cursor, matrix or slot state further. *)
    while (not !stalled) && (not t.halted) && !origin < n t do
      let j = !origin in
      while (not !stalled) && (not t.halted) && t.cursor.(j) < elig.(j) do
        let po_seq = t.cursor.(j) + 1 in
        match Tbl.Pair.find_opt t.po_store (j, po_seq) with
        | None ->
          (* Body missing: stall and reconcile. A quorum acknowledged
             it, so at least one correct replica can supply it. *)
          if not (stalled_at t ~origin:j ~po_seq) then begin
            t.stalled_on <- Some (j, po_seq);
            t.last_recon_us <- t.env.Env.now_us ();
            broadcast t (Msg.Recon_request { origin = j; po_seq })
          end;
          stalled := true
        | Some update ->
          t.cursor.(j) <- po_seq;
          (* Exactly-once, per-client-FIFO release. *)
          List.iter
            (fun u ->
              let idx = Exec_log.append t.log u in
              t.execute idx u;
              maybe_checkpoint t)
            (Delivery.offer t.delivery update)
      done;
      incr origin
    done;
    if (not !stalled) && not t.halted then begin
      t.stalled_on <- None;
      t.cum_matrix <- merged;
      t.last_applied <- seq;
      t.last_apply_us <- t.env.Env.now_us ();
      t.on_apply seq digest;
      drain_exec t
    end
  | Some _ | None -> ()

and maybe_checkpoint t =
  let count = Exec_log.length t.log in
  if count mod t.config.checkpoint_interval = 0 then begin
    let chain = Exec_log.chain_digest t.log in
    broadcast t (Msg.Checkpoint { executed = count; chain });
    record_checkpoint_vote t ~from:t.env.Env.self ~executed:count ~chain
  end

and record_checkpoint_vote t ~from ~executed ~chain =
  let key = (executed, chain) in
  let voters =
    Replica_set.add
      (Option.value (Hashtbl.find_opt t.ckpt_votes key) ~default:Replica_set.empty)
      from
  in
  Hashtbl.replace t.ckpt_votes key voters;
  let votes = Replica_set.cardinal voters in
  (* A checkpoint certificate far beyond our own execution means the
     ordering history we need has been garbage-collected by our peers:
     slot retrieval cannot catch us up, state transfer is required. *)
  if
    votes >= quorum_size t
    && executed > Exec_log.length t.log + (2 * t.config.checkpoint_interval)
    && t.env.Env.now_us () - t.last_fall_behind_us > 2_000_000
  then begin
    t.last_fall_behind_us <- t.env.Env.now_us ();
    t.on_fall_behind ()
  end;
  if votes >= quorum_size t && executed > t.stable_exec then begin
    t.stable_exec <- executed;
    (* Garbage-collect: drop applied slots except a recent tail,
       pre-order bodies already executed everywhere, and certificates
       below the new stable one. Those can no longer advance
       [stable_exec], and any fall-behind they could still signal the
       stable certificate, which is kept, signals too. *)
    let horizon = t.last_applied - 64 in
    let stale =
      Tbl.Int.fold (fun s _ acc -> if s < horizon then s :: acc else acc) t.slots []
    in
    List.iter (Tbl.Int.remove t.slots) stale;
    let dead_bodies =
      Tbl.Pair.fold
        (fun (o, ps) _ acc ->
          if ps <= t.cursor.(o) - 16 then (o, ps) :: acc else acc)
        t.po_store []
    in
    List.iter (Tbl.Pair.remove t.po_store) dead_bodies;
    Hashtbl.filter_map_inplace
      (fun (e, _) v -> if e < executed then None else Some v)
      t.ckpt_votes
  end

(* ------------------------------------------------------------------ *)
(* Ordering phases (pre-prepare / prepare / commit).                   *)

let rec maybe_prepared t seq s =
  match s.phase with
  | Voting ({ prepared = false; _ } as v)
    when Replica_set.cardinal s.prepares >= quorum_size t ->
    set_phase s (Voting { v with prepared = true });
    broadcast t (Msg.Commit { view = v.view; seq; digest = v.digest });
    s.commits <- Replica_set.add s.commits t.env.Env.self;
    maybe_committed t s
  | Open | Voting _ | Committed _ -> ()

and maybe_committed t s =
  match s.phase with
  | Voting { prepared = true; view; matrix; digest }
    when Replica_set.cardinal s.commits >= quorum_size t ->
    set_phase s (Committed { view; matrix; digest });
    drain_exec t
  | Open | Voting _ | Committed _ -> ()

(* [view] is always [t.view]: every caller checks it, or has just
   entered it. *)
let accept_preprepare t ~view ~seq ~matrix =
  match Tbl.Int.find_opt t.slots seq with
  | Some { phase = Committed c; _ } ->
    (* A later view re-proposes a slot we decided (and maybe applied).
       Its matrix is final, so vote for the re-proposal only when it
       carries that matrix: replicas that missed the decision can then
       commit it in this view. *)
    if view > c.view && Cryptosim.Digest.equal (Matrix.digest matrix) c.digest
    then begin
      broadcast t (Msg.Prepare { view; seq; digest = c.digest });
      broadcast t (Msg.Commit { view; seq; digest = c.digest })
    end
  | Some { phase = Voting { view = held; _ }; _ } when held >= view -> ()
  | _ when seq <= t.last_applied -> ()
  | _ ->
    let s = slot t seq in
    let digest = Matrix.digest matrix in
    set_phase s (Voting { view; matrix; digest; prepared = false });
    s.prepares <-
      Replica_set.(add (add empty (leader_of t view)) t.env.Env.self);
    s.commits <- Replica_set.empty;
    broadcast t (Msg.Prepare { view; seq; digest });
    List.iter
      (fun e ->
        if e.early_view = view && Cryptosim.Digest.equal e.early_digest digest
        then
          if e.commit then s.commits <- Replica_set.add s.commits e.voter
          else s.prepares <- Replica_set.add s.prepares e.voter)
      s.early;
    if s.early != [] then s.early <- [];
    maybe_prepared t seq s

(* ------------------------------------------------------------------ *)
(* TAT measurement.                                                    *)

let record_tat_sample t sample_us =
  if sample_us > t.max_tat_us then t.max_tat_us <- sample_us;
  if sample_us > t.tat_threshold_us then
    t.tat_violations <- t.tat_violations + 1
  else t.tat_violations <- 0

let process_tat_on_preprepare t matrix =
  let my_row_total = vector_total matrix.(t.env.Env.self) in
  let now = t.env.Env.now_us () in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.pending_tats with
    | Some probe when probe.target_total <= my_row_total ->
      ignore (Queue.pop t.pending_tats : tat_probe);
      record_tat_sample t (now - probe.sent_us)
    | Some _ | None -> continue := false
  done

(* Drop per-view vote tables strictly below the installed view.
   Provably invisible to behaviour: [record_suspect] only acts when
   [view = t.view], [record_vc_vote] when [target > t.view] and
   [note_view_evidence] when [view > t.view], so entries below the
   current view can never be read again — on long soaks with repeated
   view changes they only grow the tables. Called at every view
   advance. *)
let prune_stale_views t =
  let drop v x = if v < t.view then None else Some x in
  Tbl.Int.filter_map_inplace drop t.suspects;
  Tbl.Int.filter_map_inplace drop t.vc_votes;
  Tbl.Int.filter_map_inplace drop t.view_evidence

(* Install [view]: the one path by which a replica enters a view. *)
let enter_view t view =
  t.view <- view;
  prune_stale_views t;
  t.mode <- Normal;
  t.tat_violations <- 0;
  Queue.clear t.pending_tats;
  t.frontier <- Array.copy t.recv;
  t.frontier_since_us <- t.env.Env.now_us ()

(* Retained per-view table count, for leak regression tests. *)
let retained_suspect_views t =
  Tbl.Int.length t.suspects + Tbl.Int.length t.vc_votes
  + Tbl.Int.length t.view_evidence

(* Retained checkpoint certificate count, for leak regression tests. *)
let retained_checkpoints t = Hashtbl.length t.ckpt_votes

let rec maybe_suspect t =
  if
    t.tat_violations >= t.tat_violations_to_suspect
    && t.suspected_view < t.view
    && not (is_leader t)
  then suspect_leader t

and suspect_leader t =
  t.suspected_view <- t.view;
  t.tat_violations <- 0;
  broadcast t (Msg.Suspect { view = t.view });
  record_suspect t ~from:t.env.Env.self ~view:t.view

and record_suspect t ~from ~view =
  if view = t.view then begin
    let voters = add_voter t.suspects view from in
    (* Enough suspicions that at least one comes from a correct,
       non-recovering replica: rotate the leader. *)
    if Replica_set.cardinal voters >= Quorum.suspect_threshold t.config.quorum
    then
      start_view_change t (view + 1)
  end

(* ------------------------------------------------------------------ *)
(* View changes (same shape as the PBFT baseline, but entries carry
   matrices).                                                          *)

and prepared_entries t =
  (* Report EVERY retained prepared slot, including ones we already
     applied: a slot committed at a single replica is prepared at a
     quorum, and the new leader must re-propose it with the same
     content or risk divergence (replicas that missed the commit would
     otherwise fill the slot with a no-op). Sorted by slot, so the
     report does not depend on the table's layout. *)
  Tbl.Int.fold
    (fun seq s acc ->
      match s.phase with
      | Voting { prepared = true; view; matrix; _ } | Committed { view; matrix; _ }
        ->
        { Msg.entry_seq = seq; entry_view = view; entry_matrix = matrix } :: acc
      | Open | Voting _ -> acc)
    t.slots []
  |> List.sort (fun a b -> Int.compare a.Msg.entry_seq b.Msg.entry_seq)

and start_view_change t target =
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
      (Msg.Viewchange
         { new_view = target; last_committed = t.last_applied; prepared });
    record_vc_vote t ~from:t.env.Env.self ~target ~last_committed:t.last_applied
      ~prepared
  end

and record_vc_vote t ~from ~target ~last_committed ~prepared =
  if target > t.view then begin
    let votes =
      match Tbl.Int.find_opt t.vc_votes target with
      | Some v -> v
      | None ->
        let v = Hashtbl.create 7 in
        Tbl.Int.replace t.vc_votes target v;
        v
    in
    Hashtbl.replace votes from (last_committed, prepared);
    if Hashtbl.length votes >= Quorum.reply_threshold t.config.quorum then
      start_view_change t target;
    if
      Hashtbl.length votes >= quorum_size t
      && leader_of t target = t.env.Env.self
    then install_new_view t target votes
  end

and install_new_view t target votes =
  let merged : (Types.seqno, Msg.prepared_entry) Hashtbl.t = Hashtbl.create 97 in
  let max_seq = ref t.last_applied in
  (* Re-proposals must start from the MINIMUM committed sequence among
     the view-change quorum: every slot at or below it was applied by
     all quorum members (committed sequences are contiguous), so
     lagging replicas can retrieve those slots from f+1 appliers, while
     everything above is re-ordered in the new view. *)
  let min_committed = ref max_int in
  let max_committed = ref 0 in
  Hashtbl.iter
    (fun _from (last_committed, prepared) ->
      if last_committed > !max_seq then max_seq := last_committed;
      if last_committed > !max_committed then max_committed := last_committed;
      if last_committed < !min_committed then min_committed := last_committed;
      List.iter
        (fun (e : Msg.prepared_entry) ->
          if e.Msg.entry_seq > !max_seq then max_seq := e.Msg.entry_seq;
          match Hashtbl.find_opt merged e.Msg.entry_seq with
          | Some prev when prev.Msg.entry_view >= e.Msg.entry_view -> ()
          | Some _ | None -> Hashtbl.replace merged e.Msg.entry_seq e)
        prepared)
    votes;
  (* No-op fillers are only safe for slots every reporter still retains
     (anything older may have been committed and garbage-collected by
     the appliers, and a filler would diverge from it). Cap the replay
     window accordingly; replicas further behind catch up by slot
     retrieval or state transfer instead. *)
  let retention_margin = 32 in
  let start =
    if !min_committed = max_int then t.last_applied
    else max !min_committed (!max_committed - retention_margin)
  in
  let nn = n t in
  let proposals =
    List.init
      (max 0 (!max_seq - start))
      (fun i ->
        let seq = start + 1 + i in
        match Hashtbl.find_opt merged seq with
        | Some e -> (seq, e.Msg.entry_matrix)
        | None -> (seq, Matrix.empty ~n:nn))
  in
  enter_view t target;
  t.next_seq <- !max_seq + 1;
  t.last_proposed <- Matrix.empty ~n:nn;
  broadcast t (Msg.Newview { view = target; proposals });
  List.iter
    (fun (seq, matrix) -> accept_preprepare t ~view:target ~seq ~matrix)
    proposals

(* Jump to a view a quorum has demonstrably installed (used by
   replicas that were partitioned away during the view change). *)
let note_view_evidence t ~from ~view =
  if view > t.view then begin
    let voters = add_voter t.view_evidence view from in
    if Replica_set.cardinal voters >= Quorum.reply_threshold t.config.quorum
    then enter_view t view
  end

(* A Newview for the view we are in is still adopted when we reached
   that view through evidence, which carries no proposals; re-accepting
   a proposal we already hold is a no-op. *)
let adopt_new_view t ~view ~proposals =
  if view > t.view || (view = t.view && normal_mode t.mode) then begin
    if view > t.view then enter_view t view;
    List.iter
      (fun (seq, matrix) -> accept_preprepare t ~view ~seq ~matrix)
      proposals
  end

(* ------------------------------------------------------------------ *)
(* Leader proposals.                                                   *)

let current_summary t =
  (* Fold our own live vector into our row before summarising. *)
  let m = Matrix.copy t.rows in
  m.(t.env.Env.self) <- Matrix.merge_vector m.(t.env.Env.self) t.recv;
  m

(* A replica pre-prepares only as the live leader of a view it is not
   trying to leave. Checked when a proposal is cut and again when a
   delayed one is sent: a leader that voted for a view change, halted
   or crashed while the delay ran must not pre-prepare. *)
let may_propose t = live t && is_leader t && normal_mode t.mode

let proposal_tick t =
  if may_propose t then begin
    let summary = current_summary t in
    t.proposal_heartbeat <- t.proposal_heartbeat + 1;
    let heartbeat_due = t.proposal_heartbeat mod 50 = 0 in
    if (not (Matrix.equal summary t.last_proposed)) || heartbeat_due then begin
      t.last_proposed <- summary;
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      let proposal_view = t.view in
      let send () =
        if t.view = proposal_view && may_propose t then begin
          broadcast t (Msg.Preprepare { view = proposal_view; seq; matrix = summary });
          accept_preprepare t ~view:proposal_view ~seq ~matrix:summary
        end
      in
      let delay = t.faults.Faults.proposal_delay_us in
      if delay > 0 then
        ignore (t.env.Env.set_timer delay send : Sim.Engine.timer)
      else send ()
    end
  end

(* ------------------------------------------------------------------ *)
(* ARU exchange.                                                       *)

let aru_tick t =
  if live t then begin
    t.aru_heartbeat <- t.aru_heartbeat + 1;
    let heartbeat_due = t.aru_heartbeat mod 20 = 0 in
    if t.aru_dirty || heartbeat_due then begin
      let was_dirty = t.aru_dirty in
      t.aru_dirty <- false;
      broadcast t (Msg.Po_aru { vector = Array.copy t.recv });
      (* Track the leader's turnaround for this report: we expect a
         pre-prepare whose row for us covers this much progress. *)
      if was_dirty && not (is_leader t) then
        Queue.push
          { target_total = vector_total t.recv; sent_us = t.env.Env.now_us () }
          t.pending_tats
    end
  end

(* ------------------------------------------------------------------ *)
(* Watchdog: TAT timeouts, view-change escalation, reconciliation
   retries, ordered-slot catch-up.                                     *)

let watchdog t =
  if live t then begin
    let now = t.env.Env.now_us () in
    (* TAT probes that never completed count as violations. *)
    (match Queue.peek_opt t.pending_tats with
    | Some probe when now - probe.sent_us > t.tat_threshold_us ->
      ignore (Queue.pop t.pending_tats : tat_probe);
      record_tat_sample t (now - probe.sent_us)
    | Some _ | None -> ());
    (* Frontier lag: the pre-order frontier must become ordered within
       the TAT bound; otherwise the leader is withholding progress
       (covers silent leaders that never emit pre-prepares at all). *)
    if Matrix.vector_dominates t.cursor t.frontier then begin
      t.frontier <- Array.copy t.recv;
      t.frontier_since_us <- now
    end
    else if now - t.frontier_since_us > t.tat_threshold_us then begin
      t.tat_violations <- t.tat_violations + 1;
      if now - t.frontier_since_us > t.max_tat_us then
        t.max_tat_us <- now - t.frontier_since_us;
      t.frontier <- Array.copy t.recv;
      t.frontier_since_us <- now
    end;
    maybe_suspect t;
    (* View-change escalation. *)
    (match t.mode with
    | View_changing { target; since_us } ->
      if now - since_us > t.config.viewchange_timeout_us then
        start_view_change t (target + 1)
    | Normal -> ());
    (* Reconciliation retry for a stalled execution. *)
    (match t.stalled_on with
    | Some (origin, po_seq) when now - t.last_recon_us > t.config.recon_retry_us
      ->
      t.last_recon_us <- now;
      broadcast t (Msg.Recon_request { origin; po_seq })
    | Some _ | None -> ());
    (* Pre-order ARQ. A po_request is broadcast exactly once at
       submission; if that broadcast was lost (origin silenced, overlay
       daemon dark, site partitioned) peers can never acknowledge past
       the gap, and since unacknowledged pre-orders never become
       eligible, nothing downstream ever reconciles them — the origin's
       whole pipeline wedges permanently. Re-broadcast the oldest own
       pre-orders that an ordering quorum has not yet cumulatively
       acknowledged (per the Po_aru vectors peers report). *)
    let last_own = t.po_next_seq - 1 in
    if last_own >= 1 && now - t.last_po_resend_us > t.config.recon_retry_us
    then begin
      let self = t.env.Env.self in
      let acks = Array.map (fun row -> row.(self)) t.rows in
      Array.sort compare acks;
      (* The quorum-ack watermark: the q-th largest reported aru for our
         origin. Stale rows from up to [n - q] crashed or lagging peers
         cannot hold it down. *)
      let quorum_ack = acks.(Array.length acks - quorum_size t) in
      if quorum_ack < last_own then begin
        t.last_po_resend_us <- now;
        let ack, since = t.po_stall in
        if ack <> quorum_ack then t.po_stall <- (quorum_ack, now);
        for s = quorum_ack + 1 to min last_own (quorum_ack + 8) do
          match Tbl.Pair.find_opt t.po_store (self, s) with
          | Some update ->
            broadcast t (Msg.Po_request { origin = self; po_seq = s; update })
          | None
            when s > t.cursor.(self) && ack = quorum_ack
                 && now - since >= t.config.viewchange_timeout_us ->
            (* A state transfer dropped this unexecuted body of ours,
               and our acknowledgement has not moved for as long as a
               view change may take, so the original broadcast is lost,
               not slow. Ask the body back from the peers whose vectors
               show they stored it: without it the hole in our origin
               sequence never closes, and nothing we pre-order after it
               becomes eligible. *)
            Array.iteri
              (fun r row ->
                if row.(self) >= s then
                  send_to t r (Msg.Recon_request { origin = self; po_seq = s }))
              t.rows
          | None -> ()
        done
      end
    end;
    (* A long stall with peers demonstrably ahead means slot retrieval
       is not converging (the missing slots may have too few appliers);
       escalate to state transfer. *)
    if
      t.max_seq_seen > t.last_applied
      && now - max t.last_apply_us t.last_fall_behind_us
         > 20 * t.config.recon_retry_us
    then begin
      t.last_fall_behind_us <- now;
      t.on_fall_behind ()
    end;
    let next = t.last_applied + 1 in
    let next_uncommitted =
      match Tbl.Int.find_opt t.slots next with
      | Some { phase = Committed _; _ } -> false
      | Some _ | None -> true
    in
    (* Leader hole repair: we proposed past [next] but [next] never
       committed — the pre-prepare may have been lost in transit (e.g.
       our overlay daemon was dark when it went out). Re-broadcast the
       pre-prepares for the lowest uncommitted slots we still hold at
       the current view; duplicates are idempotent at receivers.
       Without this, a hole below already-committed slots wedges the
       whole deployment: slot retrieval only serves applied slots, and
       nobody can apply anything past the hole. *)
    if
      is_leader t && normal_mode t.mode && next_uncommitted
      && t.next_seq > next
      && now - max t.last_apply_us t.last_repair_us > t.config.recon_retry_us
    then begin
      t.last_repair_us <- now;
      let continue = ref true in
      let i = ref 0 in
      while !continue && !i < 8 do
        (match Tbl.Int.find_opt t.slots (next + !i) with
        | Some { phase = Voting { view; matrix; _ }; _ } when view = t.view ->
          broadcast t (Msg.Preprepare { view; seq = next + !i; matrix })
        | Some { phase = Committed { view; _ }; _ } when view = t.view -> ()
        | Some _ | None -> continue := false);
        incr i
      done
    end;
    (* Ordered-slot catch-up: peers referenced sequences beyond what we
       have applied, and we are making no local progress — we missed
       ordering traffic (e.g. a Byzantine leader excludes us). Fetch the
       hole from peers; adoption needs f+1 matching replies. *)
    if
      next_uncommitted
      && t.max_seq_seen > t.last_applied
      && now - max t.last_apply_us t.last_recon_us > t.config.recon_retry_us
    then begin
      t.last_recon_us <- now;
      broadcast t (Msg.Slot_request { seq = next });
      let tally =
        match Tbl.Int.find_opt t.slots next with Some s -> vote_tally s | None -> 0
      in
      let slot', tally', _ = t.stuck in
      if (slot', tally') <> (next, tally) then t.stuck <- (next, tally, now)
    end
  end

let start t =
  if not t.running then begin
    t.running <- true;
    let rec arm interval f =
      ignore
        (t.env.Env.set_timer interval (fun () ->
             if not t.halted then begin
               f t;
               arm interval f
             end)
          : Sim.Engine.timer)
    in
    arm t.config.aru_interval_us aru_tick;
    arm t.config.proposal_interval_us proposal_tick;
    arm t.config.watchdog_interval_us watchdog
  end

(* ------------------------------------------------------------------ *)
(* Entry points.                                                       *)

(* Pre-order our own submissions: assign consecutive po_seqs, store
   every body locally, and broadcast one frame for the lot. A single
   update ships as the legacy [Po_request], so the wire trajectory at
   [max_batch = 1] is bit-identical to the unbatched pipeline. *)
let send_po t update =
  let po_seq = t.po_next_seq in
  t.po_next_seq <- po_seq + 1;
  let origin = t.env.Env.self in
  ignore (store_body t ~origin ~po_seq update : bool);
  broadcast t (Msg.Po_request { origin; po_seq; update })

let flush_po t = function
  | [] -> ()
  | [ update ] -> send_po t update
  | updates ->
    let origin = t.env.Env.self in
    let first_seq = t.po_next_seq in
    List.iteri
      (fun i u -> ignore (store_body t ~origin ~po_seq:(first_seq + i) u : bool))
      updates;
    t.po_next_seq <- first_seq + List.length updates;
    broadcast t (Msg.Po_batch { origin; first_seq; updates })

let submit t update =
  if live t && not (Delivery.seen t.delivery (Update.key update)) then
    match Batch.add t.po_acc ~now:(t.env.Env.now_us ()) update with
    | Batch.Solo -> send_po t update
    | Batch.Flush updates -> flush_po t updates
    | Batch.Arm delay_us ->
      ignore
        (t.env.Env.set_timer delay_us (fun () ->
             if live t then
               flush_po t (Batch.due t.po_acc ~now:(t.env.Env.now_us ())))
          : Sim.Engine.timer)
    | Batch.Wait -> ()

(* ------------------------------------------------------------------ *)
(* Runtime tuning plane: live-settable knobs.                          *)

let tat_threshold_us t = t.tat_threshold_us

let set_tat_threshold t us =
  if us <= 0 then invalid_arg "Replica.set_tat_threshold: non-positive";
  t.tat_threshold_us <- us

let set_tat_violations_to_suspect t k =
  if k < 1 then invalid_arg "Replica.set_tat_violations_to_suspect: < 1";
  t.tat_violations_to_suspect <- k

(* Controller-initiated leader demotion: suspect the current leader
   immediately, without waiting for [tat_violations_to_suspect] local
   TAT evidence. Same broadcast path as [maybe_suspect] — rotation
   still needs [Quorum.suspect_threshold] distinct suspicions, so a
   single compromised (or over-eager) controller cannot depose a
   correct leader on its own. No-op if we already suspected this view
   or are the leader ourselves. *)
let demote_leader t =
  if
    (not t.halted)
    && (not t.faults.Faults.crashed)
    && t.suspected_view < t.view
    && not (is_leader t)
  then begin
    suspect_leader t;
    true
  end
  else false

(* Every matrix a peer sends must be n x n before anything reads it
   (the matrix kernels and [process_tat_on_preprepare] index it as
   such); a message carrying any other shape is dropped whole. *)
let carries_malformed_matrix t msg =
  let nn = n t in
  match msg with
  | Msg.Preprepare { matrix; _ } | Msg.Slot_reply { matrix; _ } ->
    not (Matrix.well_formed ~n:nn matrix)
  | Msg.Viewchange { prepared; _ } ->
    List.exists
      (fun e -> not (Matrix.well_formed ~n:nn e.Msg.entry_matrix))
      prepared
  | Msg.Newview { proposals; _ } ->
    List.exists (fun (_, m) -> not (Matrix.well_formed ~n:nn m)) proposals
  | _ -> false

(* Store a peer's body; resume execution if it was stalled on it. *)
let receive_body t ~origin ~po_seq update =
  ignore (store_body t ~origin ~po_seq update : bool);
  if stalled_at t ~origin ~po_seq then drain_exec t

let handle t ~from msg =
  if live t && not (carries_malformed_matrix t msg) then begin
    if from >= 0 && from < n t then
      t.last_heard_us.(from) <- t.env.Env.now_us ();
    match msg with
    | Msg.Po_request { origin; po_seq; update } ->
      if origin = from then receive_body t ~origin ~po_seq update
    | Msg.Po_batch { origin; first_seq; updates } ->
      if origin = from then
        List.iteri
          (fun i u -> receive_body t ~origin ~po_seq:(first_seq + i) u)
          updates
    | Msg.Po_aru { vector } ->
      if Array.length vector = n t then
        t.rows.(from) <- Matrix.merge_vector t.rows.(from) vector
    | Msg.Preprepare { view; seq; matrix } ->
      if seq > t.max_seq_seen then t.max_seq_seen <- seq;
      note_view_evidence t ~from ~view;
      (* Safety-critical: once this replica has voted for a view change
         its reported prepared set is frozen — participating further in
         the old view's ordering would let slots commit without
         appearing in any view-change report. *)
      if normal_mode t.mode && view = t.view && from = leader_of t view then begin
        process_tat_on_preprepare t matrix;
        accept_preprepare t ~view ~seq ~matrix
      end
    | (Msg.Prepare { view; seq; digest } | Msg.Commit { view; seq; digest }) as
      vote ->
      if seq > t.max_seq_seen then t.max_seq_seen <- seq;
      note_view_evidence t ~from ~view;
      (* Votes count only in the current view: one for an older view
         could commit a slot that the view change re-filled. *)
      if normal_mode t.mode && view >= t.view && seq > t.last_applied then begin
        let s = slot t seq in
        let prepare = match vote with Msg.Prepare _ -> true | _ -> false in
        match s.phase with
        | Voting v when v.view = view ->
          if Cryptosim.Digest.equal v.digest digest then
            if prepare then begin
              s.prepares <- Replica_set.add s.prepares from;
              maybe_prepared t seq s
            end
            else begin
              s.commits <- Replica_set.add s.commits from;
              maybe_committed t s
            end
        | Committed _ -> ()
        | Open | Voting _ ->
          buffer_vote s
            { voter = from; commit = not prepare; early_view = view;
              early_digest = digest }
      end
    | Msg.Suspect { view } -> record_suspect t ~from ~view
    | Msg.Viewchange { new_view; last_committed; prepared } ->
      record_vc_vote t ~from ~target:new_view ~last_committed ~prepared
    | Msg.Newview { view; proposals } ->
      if from = leader_of t view then adopt_new_view t ~view ~proposals
    | Msg.Recon_request { origin; po_seq } -> (
      match Tbl.Pair.find_opt t.po_store (origin, po_seq) with
      | Some update -> send_to t from (Msg.Recon_reply { origin; po_seq; update })
      | None -> ())
    | Msg.Recon_reply { origin; po_seq; update } ->
      receive_body t ~origin ~po_seq update
    | Msg.Slot_request { seq } -> (
      match Tbl.Int.find_opt t.slots seq with
      | Some ({ phase = Voting { view; digest; prepared; _ }; _ } as s)
        when view = t.view && normal_mode t.mode ->
        (* The asker is stuck on a slot we hold open too. If its vote
           tally has not moved for a retry period since our own
           request, votes were lost, not delayed: catch-up serves only
           applied slots, so the slot stays open for good unless its
           voters hear each other again. *)
        let slot', tally, since = t.stuck in
        if
          slot' = seq && tally = vote_tally s
          && t.env.Env.now_us () - since >= t.config.recon_retry_us
        then begin
          send_to t from (Msg.Prepare { view; seq; digest });
          if prepared then send_to t from (Msg.Commit { view; seq; digest })
        end
      | Some _ | None ->
      (* Serve a batch of consecutive applied slots to speed catch-up. *)
      let continue = ref true in
      let i = ref 0 in
      while !continue && !i < 8 do
        (match Tbl.Int.find_opt t.slots (seq + !i) with
        | Some { phase = Committed { matrix; _ }; _ }
          when seq + !i <= t.last_applied ->
          send_to t from (Msg.Slot_reply { seq = seq + !i; matrix })
        | Some _ | None -> continue := false);
        incr i
      done)
    | Msg.Slot_reply { seq; matrix } ->
      if seq > t.last_applied then begin
        let s = slot t seq in
        match s.phase with
        | Committed _ -> ()
        | (Open | Voting _) as phase ->
          let digest = Matrix.digest matrix in
          let voters = add_reply s digest from in
          if Replica_set.cardinal voters >= Quorum.reply_threshold t.config.quorum
          then begin
            (* f+1 matching replies: at least one correct replica applied
               this matrix at this slot. Adopt it. *)
            let view = match phase with Voting v -> v.view | _ -> -1 in
            set_phase s (Committed { view; matrix; digest });
            drain_exec t;
            (* Chain: if still behind, request the next hole without
               waiting for the watchdog (rate-limited lightly). *)
            let now = t.env.Env.now_us () in
            if t.max_seq_seen > t.last_applied && now - t.last_recon_us > 2_000
            then begin
              t.last_recon_us <- now;
              broadcast t (Msg.Slot_request { seq = t.last_applied + 1 })
            end
          end
      end
    | Msg.Checkpoint { executed; chain } ->
      record_checkpoint_vote t ~from ~executed ~chain
  end

(* ------------------------------------------------------------------ *)
(* State transfer.                                                     *)

let snapshot t =
  {
    snap_exec_count = Exec_log.length t.log;
    snap_chain = Exec_log.chain_digest t.log;
    snap_cursor = Array.copy t.cursor;
    snap_last_applied = t.last_applied;
    snap_cum_matrix = Matrix.copy t.cum_matrix;
    snap_view = t.view;
    snap_delivery = Delivery.state t.delivery;
  }

(* The head digest hashes ["snap:%d:%d:%d:%s"] over the exec count,
   last applied slot, view and comma-joined cursor, streamed. *)
let snapshot_digest s =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  D.add_string a "snap:";
  D.add_int a s.snap_exec_count;
  D.add_byte a ':';
  D.add_int a s.snap_last_applied;
  D.add_byte a ':';
  D.add_int a s.snap_view;
  D.add_byte a ':';
  Array.iteri
    (fun i v ->
      if i > 0 then D.add_byte a ',';
      D.add_int a v)
    s.snap_cursor;
  D.combine (D.finish a)
    (D.combine
       (D.combine s.snap_chain (Matrix.digest s.snap_cum_matrix))
       (Delivery.digest_of_state s.snap_delivery))

let install_snapshot t s =
  Exec_log.install_snapshot t.log ~updates:s.snap_exec_count
    ~chain:s.snap_chain;
  t.cursor <- Array.copy s.snap_cursor;
  Delivery.install t.delivery s.snap_delivery;
  t.last_applied <- s.snap_last_applied;
  t.cum_matrix <- Matrix.copy s.snap_cum_matrix;
  t.view <- max t.view s.snap_view;
  t.mode <- Normal;
  (* Transient protocol state is rebuilt from live traffic. *)
  Tbl.Int.reset t.slots;
  Tbl.Pair.reset t.po_store;
  Batch.clear t.po_acc;
  t.recv <- Array.copy s.snap_cursor;
  t.rows <- Matrix.empty ~n:(n t);
  t.rows.(t.env.Env.self) <- Array.copy t.recv;
  t.aru_dirty <- true;
  t.stalled_on <- None;
  Queue.clear t.pending_tats;
  t.tat_violations <- 0;
  t.suspected_view <- t.view - 1;
  Tbl.Int.reset t.suspects;
  Tbl.Int.reset t.vc_votes;
  Tbl.Int.reset t.view_evidence;
  Hashtbl.reset t.ckpt_votes;
  t.stable_exec <- s.snap_exec_count;
  t.last_proposed <- Matrix.empty ~n:(n t);
  (* Monotone: never step back below sequences we already proposed —
     re-burning a sequence number with a fresh matrix would equivocate
     against any replica that committed the original. *)
  t.next_seq <- max t.next_seq (s.snap_last_applied + 1)
