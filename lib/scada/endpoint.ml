type pending = {
  update : Bft.Update.t;
  submitted_us : int;
  mutable attempt : int;
  mutable last_sent_us : int;
  shares : Shares.t;
}

type t = {
  engine : Sim.Engine.t;
  client_id : Bft.Types.client;
  (* Threshold groups this endpoint accepts combined signatures from,
     newest epoch first.  Across a membership cutover, boundary-batch
     replies are still signed by the old epoch's group while new-epoch
     replies use the new one, so the endpoint keeps the last two.
     [Shares] counts each share only under the groups it verifies
     against, so trying each group is sound. *)
  mutable groups : Cryptosim.Threshold.group list;
  resubmit_timeout_us : int;
  submit : attempt:int -> Bft.Update.t -> unit;
  submit_batch : Bft.Update.t list -> unit;  (* first attempts, >= 2 *)
  acc : Bft.Update.t Bft.Batch.acc;
  pending : pending Bft.Tbl.Int.t; (* client_seq -> pending *)
  mutable next_seq : int;
  mutable floor : int; (* lowest possibly-pending client_seq *)
  mutable completed : int;
  mutable resubmits : int;
  mutable on_complete : Bft.Update.t -> latency_us:int -> unit;
  mutable running : bool;
  telemetry : Telemetry.Sink.t;
  shard : int; (* engine shard owning this endpoint's timers *)
}

let create ?(telemetry = Telemetry.Sink.null) ?(batch = Bft.Batch.singleton)
    ?submit_batch ?(shard = 0) ~engine ~client_id ~group ~resubmit_timeout_us
    ~submit () =
  {
    engine;
    client_id;
    groups = [ group ];
    resubmit_timeout_us;
    submit;
    submit_batch =
      (match submit_batch with
      | Some f -> f
      | None -> List.iter (fun u -> submit ~attempt:0 u));
    acc = Bft.Batch.acc batch;
    pending = Bft.Tbl.Int.create 97;
    next_seq = 1;
    floor = 1;
    completed = 0;
    resubmits = 0;
    on_complete = (fun _ ~latency_us:_ -> ());
    running = false;
    telemetry;
    shard;
  }

let client_id t = t.client_id

(* Adopt a new epoch's threshold group; the previous one is retained
   (and only it) so in-flight old-epoch replies still combine. *)
let push_group t g =
  if not (List.memq g t.groups) then
    t.groups <- g :: (match t.groups with old :: _ -> [ old ] | [] -> [])
let pending_count t = Bft.Tbl.Int.length t.pending
let completed_count t = t.completed
let resubmit_count t = t.resubmits
let set_on_complete t f = t.on_complete <- f

(* The batched milestone fires for every flushed update; one that
   flushes alone at submit ([max_batch = 1]) gets a zero-width
   batch-wait phase. *)
let batched t (u : Bft.Update.t) =
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.update_batched t.telemetry
      ~trace:
        (Telemetry.Span.trace_id ~client:t.client_id
           ~seq:u.Bft.Update.client_seq)
      ~now:(Sim.Engine.now t.engine)

(* A single update ships as the legacy [Client_update] through
   [submit]; a larger flush goes out through [submit_batch]. *)
let ship_one t u =
  batched t u;
  t.submit ~attempt:0 u

let flush_batch t = function
  | [] -> ()
  | [ u ] -> ship_one t u
  | updates ->
    List.iter (batched t) updates;
    t.submit_batch updates

let send_op t op =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let now = Sim.Engine.now t.engine in
  let update = Op.to_update op ~client:t.client_id ~client_seq:seq ~submitted_us:now in
  Bft.Tbl.Int.replace t.pending seq
    { update; submitted_us = now; attempt = 0; last_sent_us = now;
      shares = Shares.create () };
  if Telemetry.Sink.enabled t.telemetry then
    Telemetry.Sink.update_submitted t.telemetry
      ~trace:(Telemetry.Span.trace_id ~client:t.client_id ~seq)
      ~now;
  (match Bft.Batch.add t.acc ~now update with
  | Bft.Batch.Solo -> ship_one t update
  | Bft.Batch.Flush updates -> flush_batch t updates
  | Bft.Batch.Arm delay_us ->
    ignore
      (Sim.Engine.schedule ~shard:t.shard t.engine ~delay_us (fun () ->
           flush_batch t (Bft.Batch.due t.acc ~now:(Sim.Engine.now t.engine)))
        : Sim.Engine.timer)
  | Bft.Batch.Wait -> ());
  update

let handle_reply t (reply : Reply.t) =
  let client, seq = reply.Reply.update_key in
  if client <> t.client_id then None
  else
    match Bft.Tbl.Int.find_opt t.pending seq with
    | None -> None (* unknown or already confirmed *)
    | Some p ->
      (match Shares.add p.shares ~groups:t.groups reply with
      | None -> None
      | Some body ->
        Bft.Tbl.Int.remove t.pending seq;
        t.completed <- t.completed + 1;
        let now = Sim.Engine.now t.engine in
        if Telemetry.Sink.enabled t.telemetry then
          Telemetry.Sink.update_confirmed t.telemetry
            ~trace:(Telemetry.Span.trace_id ~client:t.client_id ~seq)
            ~now;
        let latency_us = now - p.submitted_us in
        t.on_complete p.update ~latency_us;
        Some body)

(* Retransmission policy: execution is per-client FIFO, so only the
   head of the pending line can unblock progress — retransmitting a
   deep backlog is pure overhead. The watchdog therefore retransmits at
   most [resubmit_window] of the lowest-sequence pendings, each under
   exponential backoff. [floor] tracks the lowest possibly-pending
   sequence so the scan is O(window) amortised. *)
let resubmit_window = 8

let watchdog t =
  let now = Sim.Engine.now t.engine in
  while t.floor < t.next_seq && not (Bft.Tbl.Int.mem t.pending t.floor) do
    t.floor <- t.floor + 1
  done;
  let examined = ref 0 in
  let seq = ref t.floor in
  while !examined < resubmit_window && !seq < t.next_seq do
    (match Bft.Tbl.Int.find_opt t.pending !seq with
    | None -> ()
    | Some p ->
      incr examined;
      (* Exponential backoff caps retransmission load when the system
         is saturated rather than partitioned. *)
      let backoff = t.resubmit_timeout_us * (1 lsl min p.attempt 4) in
      if now - p.last_sent_us > backoff then begin
        p.attempt <- p.attempt + 1;
        p.last_sent_us <- now;
        t.resubmits <- t.resubmits + 1;
        t.submit ~attempt:p.attempt p.update
      end);
    incr seq
  done

let start t =
  if not t.running then begin
    t.running <- true;
    let interval = max 10_000 (t.resubmit_timeout_us / 4) in
    ignore
      (Sim.Engine.periodic ~shard:t.shard t.engine ~interval_us:interval
         (fun () -> watchdog t)
        : Sim.Engine.timer)
  end
