(* Allocation-lean scheduler core: one timer record per scheduled
   callback is the only per-event allocation. A periodic timer is a
   single record re-queued at each firing (no fresh closure or event box
   per period), and a one-shot that has fired can be re-armed, so a
   component running one event at a time (a link's transmissions)
   allocates nothing per event. Every queue entry takes the next
   scheduling order, and the engine keeps the latest place [(time,
   order)] its run has reached: a component that knows an event's only
   effect can reserve the event's place instead of queueing it and
   apply the effect once the run has passed that place. Cancelled-but-queued entries are purged lazily once they
   are numerous enough to matter, so cancel/re-arm-heavy workloads
   (client resubmit timers, chaos schedules) cannot bloat the queue.

   The queue is one hierarchical timing wheel (Varghese & Lauck, SOSP
   1987): 4 levels of 64 slots, 1 us / 64 us / 4.1 ms / 262 ms wide, over
   the 2^24 us block holding the wheel's cursor. Each slot is a FIFO
   threaded through the timers' [link] field. The cursor is the wheel's
   position, kept apart from the clock: it is >= the clock and <= every
   wheel entry's time. An entry at time T sits at the lowest level whose
   higher digits T shares with the cursor. When level 0 is empty, the
   cursor moves to the start of the lowest level's first occupied slot
   and that slot is cascaded one or more levels down, with no search for
   its minimum; this repeats until level 0 holds an entry. Slots only
   ever append, and a cascade only fills slots that are empty, so each
   slot holds its entries in scheduling order and the head of a level-0
   slot is the earliest [(time, seq)] entry of its microsecond: popping
   level 0 FIFO is the binary heap's order exactly.

   Entries outside the cursor's 2^24 us block, and entries below the
   cursor (periodic re-arms behind a clock moved by a nested [run], or
   timers scheduled after a peek left the cursor ahead of the clock; a
   [run] cascades no slot that starts past its horizon), go to [far], a binary heap keyed by time and scheduling
   order. Each of those was scheduled before any wheel entry at the same
   time (far ones in an earlier block; below the cursor there is no
   wheel entry), so the heap wins ties.

   A timer's shard tag is attribution only: it picks the per-shard
   executed and queued counters, never where or when the timer fires. *)

type t = {
  mutable clock_us : int;
  mutable cursor_us : int; (* >= clock, <= every wheel entry's time *)
  heads : timer array; (* level * 64 + slot; [nil] when the slot is empty *)
  tails : timer array;
  occupied : int array; (* level * 2 + half: 32-bit slot-occupancy words *)
  far : timer Event_heap.t; (* beyond the wheel's block, or below the cursor *)
  root_rng : Rng.t;
  mutable processed : int;
  processed_by : int array; (* per-shard executed-event counters *)
  queued_by : int array; (* per-shard queued entries, cancelled included *)
  hi_water_by : int array; (* per-shard peak of [queued_by] *)
  mutable queued : int; (* queued entries, all shards *)
  mutable cancelled_queued : int; (* cancelled entries still queued *)
  mutable scheduled : int; (* scheduling orders handed out so far *)
  mutable place_time : int; (* the latest place the run has reached, *)
  mutable place_order : int; (* [(time, order)]: see [passed] *)
  mutable reserved_until : int; (* latest reserved place's time *)
}

and timer = {
  engine : t;
  callback : unit -> unit;
  interval_us : int; (* 0 = one-shot *)
  shard : int; (* attribution tag *)
  mutable next_at : int; (* scheduled firing time (cadence anchor) *)
  mutable order : int; (* scheduling order of its queue entry; -1 = none *)
  mutable cancelled : bool;
  mutable link : timer; (* next entry of its wheel slot, or [nil] *)
}

(* The end-of-slot sentinel. It is shared by every engine, so no code
   path may write to it: only queued timers are ever mutated. *)
let nil_far = Event_heap.create ()
let nil_rng = Rng.create 0L

let rec nil =
  {
    engine = nil_engine;
    callback = ignore;
    interval_us = 0;
    shard = 0;
    next_at = max_int;
    order = -1;
    cancelled = true;
    link = nil;
  }

and nil_engine =
  {
    clock_us = 0;
    cursor_us = 0;
    heads = [||];
    tails = [||];
    occupied = [||];
    far = nil_far;
    root_rng = nil_rng;
    processed = 0;
    processed_by = [||];
    queued_by = [||];
    hi_water_by = [||];
    queued = 0;
    cancelled_queued = 0;
    scheduled = 0;
    place_time = -1;
    place_order = 0;
    reserved_until = 0;
  }

let levels = 4
let slot_bits = 6

(* Times sharing every digit above this many bits with the cursor are
   on the wheel. *)
let span_bits = levels * slot_bits

let create ?(seed = 0xC0FFEEL) ?(shards = 1) () =
  if shards < 1 then invalid_arg "Engine.create: shards < 1";
  {
    clock_us = 0;
    cursor_us = 0;
    heads = Array.make (levels lsl slot_bits) nil;
    tails = Array.make (levels lsl slot_bits) nil;
    occupied = Array.make (2 * levels) 0;
    far = Event_heap.create ();
    root_rng = Rng.create seed;
    processed = 0;
    processed_by = Array.make shards 0;
    queued_by = Array.make shards 0;
    hi_water_by = Array.make shards 0;
    queued = 0;
    cancelled_queued = 0;
    scheduled = 0;
    place_time = -1;
    place_order = 0;
    reserved_until = 0;
  }

let now t = t.clock_us
let rng t = Rng.split t.root_rng
let shards t = Array.length t.processed_by

(* Out-of-range shard tags fall back to the control shard: callers built
   against a single-shard engine keep working unchanged, and since the
   tag is attribution only the fallback cannot perturb event order. *)
let[@inline] clamp_shard t shard =
  if shard < 0 || shard >= Array.length t.processed_by then 0 else shard

(* ------------------------------------------------------------------ *)
(* Wheel slots: index [i = level * 64 + slot], occupancy bit [i land 31]
   of word [i lsr 5]. *)

(* Trailing zeros of a nonzero 32-bit word, by de Bruijn multiplication. *)
let debruijn32 =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\
   \031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let[@inline] ctz32 x =
  Char.code
    (String.unsafe_get debruijn32
       ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

let[@inline] level_occupied t level =
  t.occupied.(2 * level) lor t.occupied.((2 * level) + 1) <> 0

(* First occupied slot of a nonempty level. *)
let[@inline] first_slot t level =
  let w = t.occupied.(2 * level) in
  if w <> 0 then (level lsl slot_bits) lor ctz32 w
  else (level lsl slot_bits) lor (32 + ctz32 t.occupied.((2 * level) + 1))

(* Append [tm], whose [link] is [nil], to slot [i]. *)
let[@inline] append t i tm =
  let tail = t.tails.(i) in
  if tail == nil then begin
    t.heads.(i) <- tm;
    let w = i lsr 5 in
    t.occupied.(w) <- t.occupied.(w) lor (1 lsl (i land 31))
  end
  else tail.link <- tm;
  t.tails.(i) <- tm

(* Detach slot [i]'s list and return its head. *)
let[@inline] detach t i =
  let head = t.heads.(i) in
  t.heads.(i) <- nil;
  t.tails.(i) <- nil;
  let w = i lsr 5 in
  t.occupied.(w) <- t.occupied.(w) land lnot (1 lsl (i land 31));
  head

(* Remove and return slot [i]'s head. *)
let[@inline] pop_slot t i =
  let tm = t.heads.(i) in
  let next = tm.link in
  if next == nil then ignore (detach t i : timer)
  else begin
    t.heads.(i) <- next;
    tm.link <- nil
  end;
  tm

(* The level of a wheel time whose bits differ from the cursor's in [x]
   ([x = time lxor cursor < 2^24]): the highest differing digit. *)
let[@inline] level_of x =
  if x < 64 then 0 else if x < 4096 then 1 else if x < 262_144 then 2 else 3

let[@inline] slot_index level time =
  (level lsl slot_bits) lor ((time lsr (slot_bits * level)) land 63)

(* Slot of a wheel time [time] (>= cursor, in the cursor's block). *)
let[@inline] slot_of t time = slot_index (level_of (time lxor t.cursor_us)) time

let enqueue t tm =
  tm.order <- t.scheduled;
  t.scheduled <- t.scheduled + 1;
  let time = tm.next_at in
  if time < t.cursor_us || (time lxor t.cursor_us) lsr span_bits <> 0 then
    Event_heap.push t.far ~time tm
  else append t (slot_of t time) tm;
  let s = tm.shard in
  let n = t.queued_by.(s) + 1 in
  t.queued_by.(s) <- n;
  if n > t.hi_water_by.(s) then t.hi_water_by.(s) <- n;
  t.queued <- t.queued + 1

(* Re-file slot [i]'s entries against the cursor, keeping their order.
   Every slot they land in is below [i]'s level and empty. *)
let refile t i =
  let e = ref (detach t i) in
  while !e != nil do
    let tm = !e in
    e := tm.link;
    tm.link <- nil;
    append t (slot_of t tm.next_at) tm
  done

(* Move the cursor forward to [time], no wheel entry lying before it.
   Only the slot of the highest digit that changed can hold entries
   (every lower slot covered times now past), so that one slot is
   re-filed. *)
let advance t time =
  let x = time lxor t.cursor_us in
  t.cursor_us <- time;
  if x >= 64 && x lsr span_bits = 0 then begin
    let i = slot_index (level_of x) time in
    if t.heads.(i) != nil then refile t i
  end

(* ------------------------------------------------------------------ *)

(* An unqueued timer. *)
let[@inline] make t ~shard ~interval_us f =
  {
    engine = t;
    callback = f;
    interval_us;
    shard = clamp_shard t shard;
    next_at = max_int;
    order = -1;
    cancelled = false;
    link = nil;
  }

let one_shot ?(shard = 0) t f = make t ~shard ~interval_us:0 f

(* The one enqueue path: a fresh one-shot and a re-armed one are
   appended at the same point, so reuse never changes the order. *)
let[@inline] queue_at t tm time_us =
  tm.next_at <- time_us;
  enqueue t tm

(* [clock + delay], saturating at [max_int] ("never"). *)
let after t delay_us =
  if delay_us > max_int - t.clock_us then max_int else t.clock_us + delay_us

let arm tm ~delay_us =
  if tm.order >= 0 || tm.cancelled || tm.interval_us > 0 then
    invalid_arg "Engine.arm: timer queued, cancelled or periodic";
  let t = tm.engine in
  queue_at t tm (after t (Int.max 0 delay_us))

let schedule_at ?(shard = 0) t ~time_us f =
  let tm = make t ~shard ~interval_us:0 f in
  queue_at t tm (Int.max time_us t.clock_us);
  tm

let schedule ?shard t ~delay_us f =
  schedule_at ?shard t ~time_us:(after t (Int.max 0 delay_us)) f

let periodic ?(shard = 0) t ~interval_us f =
  if interval_us <= 0 then invalid_arg "Engine.periodic: interval_us <= 0";
  let tm = make t ~shard ~interval_us f in
  queue_at t tm (after t interval_us);
  tm

let reserve t ~time_us =
  let order = t.scheduled in
  t.scheduled <- order + 1;
  if time_us > t.reserved_until then t.reserved_until <- time_us;
  order

let[@inline] passed t ~time_us ~order =
  time_us < t.place_time || (time_us = t.place_time && order < t.place_order)

let pending t = t.queued

(* Purge threshold: compaction is O(total queued) and resets the debt,
   so amortised cost stays O(1) per cancel; requiring the cancelled
   share to be at least half the queued load bounds the queue at 2x the
   live load. Survivors keep their slot order and heap keys, so their
   firing order is untouched. *)
let compact_min_cancelled = 64

let maybe_compact t =
  if
    t.cancelled_queued >= compact_min_cancelled
    && 2 * t.cancelled_queued >= t.queued
  then begin
    let drop tm = t.queued_by.(tm.shard) <- t.queued_by.(tm.shard) - 1 in
    for i = 0 to Array.length t.heads - 1 do
      if t.heads.(i) != nil then begin
        let e = ref (detach t i) in
        while !e != nil do
          let tm = !e in
          e := tm.link;
          tm.link <- nil;
          if tm.cancelled then drop tm else append t i tm
        done
      end
    done;
    Event_heap.compact t.far ~keep:(fun tm ->
        if tm.cancelled then drop tm;
        not tm.cancelled);
    t.queued <- t.queued - t.cancelled_queued;
    t.cancelled_queued <- 0
  end

let cancel timer =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    if timer.order >= 0 then begin
      let e = timer.engine in
      e.cancelled_queued <- e.cancelled_queued + 1;
      maybe_compact e
    end
  end

(* The far heap holds an entry at or before [time]. *)
let[@inline] far_due t time =
  (not (Event_heap.is_empty t.far)) && Event_heap.min_time t.far <= time

(* The earliest queued entry, cancelled or not, or [nil] when none is
   due by [horizon]. While level 0 is empty, the lowest occupied level's
   first occupied slot holds the wheel's earliest entries, all at or
   after the slot's start: unless the far heap is due by then, or the
   start lies past [horizon], the cursor moves to that start and the
   slot cascades down, without a search for its minimum. *)
let rec next_entry t ~horizon =
  if level_occupied t 0 then begin
    let w = t.heads.(first_slot t 0) in
    if far_due t w.next_at then Event_heap.min_event t.far else w
  end
  else begin
    let level = ref 1 in
    while !level < levels && not (level_occupied t !level) do
      incr level
    done;
    if !level = levels then
      if Event_heap.is_empty t.far then nil else Event_heap.min_event t.far
    else begin
      let i = first_slot t !level in
      let shift = slot_bits * !level in
      let start =
        ((t.cursor_us lsr (shift + slot_bits)) lsl (shift + slot_bits))
        lor ((i land 63) lsl shift)
      in
      if far_due t start then Event_heap.min_event t.far
      else if start > horizon then nil
      else begin
        t.cursor_us <- start;
        refile t i;
        next_entry t ~horizon
      end
    end
  end

(* Dequeue and execute [tm], the entry [next_entry] just returned. *)
let take t tm =
  let time = tm.next_at in
  let from_far =
    (not (Event_heap.is_empty t.far)) && Event_heap.min_event t.far == tm
  in
  if time > t.cursor_us then advance t time;
  if time > t.clock_us then t.clock_us <- time;
  ignore
    (if from_far then Event_heap.pop_min t.far else pop_slot t (time land 63)
      : timer);
  let order = tm.order in
  tm.order <- -1;
  let s = tm.shard in
  t.queued_by.(s) <- t.queued_by.(s) - 1;
  t.queued <- t.queued - 1;
  if tm.cancelled then t.cancelled_queued <- t.cancelled_queued - 1
  else begin
    t.processed <- t.processed + 1;
    t.processed_by.(s) <- t.processed_by.(s) + 1;
    (* Only a periodic re-armed behind the clock by a nested [run] comes
       after a later place; the run has passed that place still. *)
    if time > t.place_time || (time = t.place_time && order > t.place_order)
    then begin
      t.place_time <- time;
      t.place_order <- order
    end;
    tm.callback ();
    (* Re-arm relative to the firing's *scheduled* time, not the
       clock at callback return: a callback that advances the clock
       (nested [run]) or pops late must not skew subsequent firings.
       Re-arming after the callback keeps insertion order — and hence
       same-timestamp tie-breaking — identical to scheduling done
       inside the callback itself. A firing that would pass [max_int]
       is never due, so the timer is not re-armed. *)
    if
      tm.interval_us > 0 && (not tm.cancelled)
      && tm.next_at <= max_int - tm.interval_us
    then begin
      tm.next_at <- tm.next_at + tm.interval_us;
      enqueue t tm
    end
  end

(* Move the clock to the horizon [until_us], no entry being due by it;
   the cursor follows when it is behind. The run has passed every place
   at or before the horizon handed out so far, and none handed out
   later. *)
let finish t ~until_us =
  if until_us >= t.place_time then begin
    t.place_time <- until_us;
    t.place_order <- t.scheduled
  end;
  if until_us > t.clock_us then begin
    t.clock_us <- until_us;
    if until_us > t.cursor_us then advance t until_us
  end

(* The cascade stops at [until_us], so the cursor ends on the clock and
   later schedules stay on the wheel. *)
let run t ~until_us =
  let continue = ref true in
  while !continue do
    let tm = next_entry t ~horizon:until_us in
    if tm != nil && tm.next_at <= until_us then take t tm
    else continue := false
  done;
  finish t ~until_us

(* An empty queue has run every event, and a reserved place stands for
   an event it would have run: the clock ends on the latest of them. *)
let step t =
  let tm = next_entry t ~horizon:max_int in
  if tm == nil then begin
    finish t ~until_us:(Int.max t.clock_us t.reserved_until);
    false
  end
  else begin
    take t tm;
    true
  end

let run_until_quiescent ?(max_events = 100_000_000) t =
  let budget = ref max_events in
  while step t do
    decr budget;
    if !budget <= 0 then failwith "Engine.run_until_quiescent: event budget exceeded"
  done

let processed t = t.processed

let processed_of t shard =
  if shard < 0 || shard >= Array.length t.processed_by then
    invalid_arg "Engine.processed_of: shard out of range";
  t.processed_by.(shard)

let heap_hi_water t shard =
  if shard < 0 || shard >= Array.length t.hi_water_by then
    invalid_arg "Engine.heap_hi_water: shard out of range";
  t.hi_water_by.(shard)

module Window = struct
  let peek_next t =
    let tm = next_entry t ~horizon:max_int in
    if tm == nil then None else Some (tm.shard, tm.next_at)

  let finish_run t ~until_us =
    let tm = next_entry t ~horizon:until_us in
    if tm != nil && tm.next_at <= until_us then
      invalid_arg "Engine.Window.finish_run: an event is due before the horizon";
    finish t ~until_us
end
