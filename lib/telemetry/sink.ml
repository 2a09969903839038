type open_span = {
  o_parent : int;
  o_trace : int;
  o_phase : Span.phase;
  o_node : int;
  o_label : string;
  o_start : int;
}

(* Milestones of one in-flight update, all -1 until reported; first
   writer wins so resubmissions cannot move a milestone backwards in
   wall-clock order. [body_mask]/[exec_mask] are replica bitmasks used
   to count *distinct* reporters up to the configured quorums. *)
type pending = {
  mutable submit : int;
  mutable batched : int;
  mutable origin : int;
  mutable orderable : int;
  mutable exec_k : int;
  mutable reply_sent : int;
  mutable reply_replica : int;
  mutable body_mask : int;
  mutable body_count : int;
  mutable exec_mask : int;
  mutable exec_count : int;
}

type t = {
  enabled : bool;
  ring : Span.t Ring.t;
  opens : (int, open_span) Hashtbl.t;
  pending : (int, pending) Hashtbl.t;
  pending_order : int Queue.t;
  pending_cap : int;
  hists : Stats.Histogram.t array;
  mutable next_id : int;
  mutable order_quorum : int;
  mutable reply_quorum : int;
  mutable opened : int;
  mutable closed : int;
  mutable confirmed : int;
  mutable incomplete : int;
  mutable clamped : int;
  mutable abandoned : int;
}

let create ?(capacity = 65536) ?(pending_cap = 8192) ~enabled () =
  {
    enabled;
    ring = Ring.create capacity;
    opens = Hashtbl.create (if enabled then 256 else 1);
    pending = Hashtbl.create (if enabled then 256 else 1);
    pending_order = Queue.create ();
    pending_cap;
    hists = Array.init Span.phase_count (fun _ -> Stats.Histogram.create ());
    next_id = 0;
    order_quorum = 1;
    reply_quorum = 1;
    opened = 0;
    closed = 0;
    confirmed = 0;
    incomplete = 0;
    clamped = 0;
    abandoned = 0;
  }

let null = create ~capacity:1 ~pending_cap:1 ~enabled:false ()
let enabled t = t.enabled

let set_quorums t ~order ~reply =
  t.order_quorum <- max 1 order;
  t.reply_quorum <- max 1 reply

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let push_closed t span =
  Ring.push t.ring span;
  t.closed <- t.closed + 1

(* ------------------------------------------------------------------ *)
(* In-flight trace registry.                                           *)

let evict_oldest t =
  (* The queue may hold ids of traces already confirmed and removed;
     skip those until a live one is found. *)
  let rec go () =
    match Queue.take_opt t.pending_order with
    | None -> ()
    | Some trace ->
      if Hashtbl.mem t.pending trace then begin
        Hashtbl.remove t.pending trace;
        t.abandoned <- t.abandoned + 1
      end
      else go ()
  in
  go ()

let find_pending t trace =
  match Hashtbl.find_opt t.pending trace with
  | Some p -> p
  | None ->
    if Hashtbl.length t.pending >= t.pending_cap then evict_oldest t;
    let p =
      {
        submit = -1;
        batched = -1;
        origin = -1;
        orderable = -1;
        exec_k = -1;
        reply_sent = -1;
        reply_replica = -1;
        body_mask = 0;
        body_count = 0;
        exec_mask = 0;
        exec_count = 0;
      }
    in
    Hashtbl.replace t.pending trace p;
    Queue.push trace t.pending_order;
    p

let update_submitted t ~trace ~now =
  if t.enabled && trace >= 0 then begin
    let p = find_pending t trace in
    if p.submit < 0 then p.submit <- now
  end

let update_batched t ~trace ~now =
  if t.enabled && trace >= 0 then begin
    let p = find_pending t trace in
    if p.batched < 0 then p.batched <- now
  end

let update_at_origin t ~trace ~now =
  if t.enabled && trace >= 0 then begin
    let p = find_pending t trace in
    if p.origin < 0 then p.origin <- now
  end

(* Replica [r] is bit [r] of a native int, so 0..61 each have one.
   The ids are global, active plus standby replicas; [System.create]
   keeps their total within 62. *)
let distinct_bit mask replica =
  if replica > Sys.int_size - 2 then
    invalid_arg "Telemetry.Sink: replica index above 61";
  let bit = 1 lsl replica in
  if mask land bit = 0 then Some (mask lor bit) else None

let update_body t ~trace ~replica ~now =
  if t.enabled && trace >= 0 && replica >= 0 then begin
    let p = find_pending t trace in
    match distinct_bit p.body_mask replica with
    | None -> ()
    | Some mask ->
      p.body_mask <- mask;
      p.body_count <- p.body_count + 1;
      if p.body_count = t.order_quorum && p.orderable < 0 then
        p.orderable <- now
  end

let update_orderable t ~trace ~now =
  if t.enabled && trace >= 0 then begin
    let p = find_pending t trace in
    if p.orderable < 0 then p.orderable <- now
  end

let update_executed t ~trace ~replica ~now =
  if t.enabled && trace >= 0 && replica >= 0 then begin
    let p = find_pending t trace in
    match distinct_bit p.exec_mask replica with
    | None -> ()
    | Some mask ->
      p.exec_mask <- mask;
      p.exec_count <- p.exec_count + 1;
      if p.exec_count = t.reply_quorum && p.exec_k < 0 then begin
        p.exec_k <- now;
        p.reply_replica <- replica
      end
  end

let update_reply_sent t ~trace ~replica ~now =
  if t.enabled && trace >= 0 then begin
    let p = find_pending t trace in
    if p.reply_sent < 0 && replica = p.reply_replica then p.reply_sent <- now
  end

let observe t phase value =
  Stats.Histogram.add t.hists.(Span.phase_index phase) (float_of_int value)

let update_confirmed t ~trace ~now =
  if t.enabled && trace >= 0 then
    match Hashtbl.find_opt t.pending trace with
    | None -> ()
    | Some p ->
      Hashtbl.remove t.pending trace;
      t.confirmed <- t.confirmed + 1;
      let missing = ref false and clamp = ref false in
      (* Clamp each milestone into [prev, now]: a missing milestone
         collapses its phase to zero width at the predecessor; an
         out-of-order one (should not happen, see the monotonicity
         argument in DESIGN.md §10) is pinned rather than producing a
         negative interval. *)
      let fix prev v =
        if v < 0 then begin
          missing := true;
          prev
        end
        else if v < prev then begin
          clamp := true;
          prev
        end
        else if v > now then begin
          clamp := true;
          now
        end
        else v
      in
      let submit =
        if p.submit >= 0 then min p.submit now
        else begin
          missing := true;
          (* fall back to the earliest milestone we do have *)
          let cand =
            [ p.batched; p.origin; p.orderable; p.exec_k; p.reply_sent; now ]
          in
          List.fold_left
            (fun acc v -> if v >= 0 then min acc v else acc)
            now cand
        end
      in
      (* Every endpoint flush fires [batched], a flush of one at
         submit time included (zero-width batch wait). An update
         submitted outside an endpoint has none; that is not
         incompleteness, the phase just has zero width at submit. *)
      let batched =
        if p.batched < 0 then submit
        else if p.batched < submit then begin
          clamp := true;
          submit
        end
        else if p.batched > now then begin
          clamp := true;
          now
        end
        else p.batched
      in
      let origin = fix batched p.origin in
      let orderable = fix origin p.orderable in
      let exec_k = fix orderable p.exec_k in
      let reply_sent = fix exec_k p.reply_sent in
      if !missing then t.incomplete <- t.incomplete + 1;
      if !clamp then t.clamped <- t.clamped + 1;
      let root = fresh_id t in
      t.opened <- t.opened + 1;
      push_closed t
        {
          Span.id = root;
          parent = -1;
          trace;
          phase = Span.End_to_end;
          node = -1;
          label = "";
          t_start = submit;
          t_end = now;
        };
      observe t Span.End_to_end (now - submit);
      let child phase ~node t_start t_end =
        let id = fresh_id t in
        t.opened <- t.opened + 1;
        push_closed t
          {
            Span.id;
            parent = root;
            trace;
            phase;
            node;
            label = "";
            t_start;
            t_end;
          };
        observe t phase (t_end - t_start)
      in
      child Span.Batch_wait ~node:(-1) submit batched;
      child Span.Ingress ~node:(-1) batched origin;
      child Span.Preorder ~node:(-1) origin orderable;
      child Span.Ordering ~node:(-1) orderable exec_k;
      child Span.Execution ~node:p.reply_replica exec_k reply_sent;
      child Span.Reply ~node:p.reply_replica reply_sent now

(* ------------------------------------------------------------------ *)
(* Generic open/close spans.                                           *)

let open_span t ?(parent = -1) ?(trace = -1) ~phase ~node ~label ~now () =
  if not t.enabled then -1
  else begin
    let id = fresh_id t in
    Hashtbl.replace t.opens id
      { o_parent = parent; o_trace = trace; o_phase = phase; o_node = node;
        o_label = label; o_start = now };
    t.opened <- t.opened + 1;
    id
  end

let close_span t ~id ~now =
  if t.enabled && id >= 0 then
    match Hashtbl.find_opt t.opens id with
    | None -> ()
    | Some o ->
      Hashtbl.remove t.opens id;
      push_closed t
        {
          Span.id;
          parent = o.o_parent;
          trace = o.o_trace;
          phase = o.o_phase;
          node = o.o_node;
          label = o.o_label;
          t_start = o.o_start;
          t_end = max now o.o_start;
        };
      observe t o.o_phase (max now o.o_start - o.o_start)

let cancel_span t ~id =
  if t.enabled && id >= 0 && Hashtbl.mem t.opens id then begin
    Hashtbl.remove t.opens id;
    t.abandoned <- t.abandoned + 1
  end

(* ------------------------------------------------------------------ *)
(* Introspection.                                                      *)

let spans t = Ring.to_list t.ring
let hist t phase = t.hists.(Span.phase_index phase)
let open_count t = Hashtbl.length t.opens
let opened t = t.opened
let closed t = t.closed
let ring_dropped t = Ring.dropped t.ring
let confirmed t = t.confirmed
let incomplete t = t.incomplete
let clamped t = t.clamped
let abandoned t = t.abandoned
let pending_count t = Hashtbl.length t.pending

