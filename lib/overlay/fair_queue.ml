type priority = Control | Bulk

(* Round-robin rotation as a growable ring buffer of source ids. The
   previous implementation rotated with [rest @ [source]], an O(n) list
   append (and n fresh cons cells) per pop; the ring does the same
   rotation with two index updates and no allocation in steady state.
   The capacity stays a power of two, so indices wrap with a mask; it
   starts at 0, so a queue that never backs up allocates no ring. *)
type ring = { mutable buf : int array; mutable head : int; mutable len : int }

let ring_create () = { buf = [||]; head = 0; len = 0 }

let ring_push r v =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (Int.max 16 (2 * cap)) 0 in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

(* Precondition of both: [r.len > 0]. *)
let ring_peek r = r.buf.(r.head)

let ring_pop r =
  let v = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

type 'a class_state = {
  mutable queues : 'a Queue.t array; (* by source id, grown on demand *)
  rotation : ring; (* sources with pending items, service order *)
  mutable count : int;
}

type 'a t = {
  per_source_cap : int;
  control : 'a class_state;
  bulk : 'a class_state;
  mutable dropped : int;
}

let empty_class () = { queues = [||]; rotation = ring_create (); count = 0 }

let create ~per_source_cap =
  if per_source_cap <= 0 then invalid_arg "Fair_queue.create: cap <= 0";
  { per_source_cap; control = empty_class (); bulk = empty_class (); dropped = 0 }

let class_of t = function Control -> t.control | Bulk -> t.bulk

let queue_of cls source =
  let n = Array.length cls.queues in
  if source >= n then begin
    let old = cls.queues in
    cls.queues <-
      Array.init (Int.max (source + 1) (2 * n)) (fun i ->
          if i < n then old.(i) else Queue.create ())
  end;
  cls.queues.(source)

let push t ~source ~priority item =
  if source < 0 then invalid_arg "Fair_queue.push: source < 0";
  let cls = class_of t priority in
  let q = queue_of cls source in
  if Queue.length q >= t.per_source_cap then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    if Queue.is_empty q then ring_push cls.rotation source;
    Queue.push item q;
    cls.count <- cls.count + 1;
    true
  end

let length t = t.control.count + t.bulk.count
let is_empty t = length t = 0

(* Precondition: [cls.count > 0]. The source has a queue: it was pushed
   before it entered the rotation. *)
let take_class cls =
  let source = ring_pop cls.rotation in
  let q = cls.queues.(source) in
  let item = Queue.pop q in
  cls.count <- cls.count - 1;
  if not (Queue.is_empty q) then ring_push cls.rotation source;
  item

let take t =
  if t.control.count > 0 then take_class t.control
  else if t.bulk.count > 0 then take_class t.bulk
  else invalid_arg "Fair_queue.take: empty queue"

let pop t =
  if is_empty t then None
  else begin
    let priority, cls =
      if t.control.count > 0 then (Control, t.control) else (Bulk, t.bulk)
    in
    let source = ring_peek cls.rotation in
    Some (source, priority, take t)
  end

let dropped t = t.dropped

let backlog_of t ~source ~priority =
  let cls = class_of t priority in
  if source >= 0 && source < Array.length cls.queues then
    Queue.length cls.queues.(source)
  else 0
