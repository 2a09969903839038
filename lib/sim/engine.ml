(* Allocation-lean scheduler core: one timer record per scheduled
   callback is the only per-event allocation. A periodic timer is a
   single record re-pushed into the heap at each firing (no fresh
   closure or event box per period), and the heaps themselves store
   events in parallel arrays. Cancelled-but-queued entries are purged
   lazily once they are numerous enough to matter, so
   cancel/re-arm-heavy workloads (client resubmit timers, chaos
   schedules) cannot bloat the heaps.

   Sharding: the engine hosts one heap per shard (heap 0 = control /
   untagged timers; see Shard.engine_shard for the site mapping), but
   sequence numbers for the (time, seq) tie-break are allocated from a
   single engine-global counter. The executed stream is therefore the
   merge of all heaps under one total order, bit-identical to what a
   single heap would produce — a timer's shard tag affects *where* its
   entry is stored (ownership), never *when* it fires. [step] scans the
   K heap tops for the global minimum; K is the site count plus two, so
   the scan is a handful of compares per event. *)

type t = {
  mutable clock_us : int;
  heaps : timer Event_heap.t array;
  root_rng : Rng.t;
  mutable next_seq : int; (* global tie-break shared by all heaps *)
  mutable processed : int;
  processed_by : int array; (* per-shard executed-event counters *)
  mutable cancelled_queued : int; (* cancelled entries still queued, all heaps *)
}

and timer = {
  engine : t;
  callback : unit -> unit;
  interval_us : int; (* 0 = one-shot *)
  shard : int; (* owning heap index *)
  mutable next_at : int; (* scheduled firing time (cadence anchor) *)
  mutable cancelled : bool;
  mutable queued : bool; (* currently has an entry in a heap *)
}

let create ?(seed = 0xC0FFEEL) ?(shards = 1) () =
  if shards < 1 then invalid_arg "Engine.create: shards < 1";
  {
    clock_us = 0;
    heaps = Array.init shards (fun _ -> Event_heap.create ());
    root_rng = Rng.create seed;
    next_seq = 0;
    processed = 0;
    processed_by = Array.make shards 0;
    cancelled_queued = 0;
  }

let now t = t.clock_us
let rng t = Rng.split t.root_rng
let shards t = Array.length t.heaps

(* Out-of-range shard tags fall back to the control heap: callers built
   against a single-heap engine keep working unchanged, and since the
   (time, seq) key is global the fallback cannot perturb event order. *)
let clamp_shard t shard =
  if shard < 0 || shard >= Array.length t.heaps then 0 else shard

let push_timer t tm =
  let seq = t.next_seq in
  Event_heap.push_keyed t.heaps.(tm.shard) ~time:tm.next_at ~seq tm;
  t.next_seq <- seq + 1

let schedule_at ?(shard = 0) t ~time_us f =
  let time_us = max time_us t.clock_us in
  let timer =
    {
      engine = t;
      callback = f;
      interval_us = 0;
      shard = clamp_shard t shard;
      next_at = time_us;
      cancelled = false;
      queued = true;
    }
  in
  push_timer t timer;
  timer

let schedule ?shard t ~delay_us f =
  schedule_at ?shard t ~time_us:(t.clock_us + max 0 delay_us) f

let periodic ?(shard = 0) t ~interval_us f =
  if interval_us <= 0 then invalid_arg "Engine.periodic: interval_us <= 0";
  let timer =
    {
      engine = t;
      callback = f;
      interval_us;
      shard = clamp_shard t shard;
      next_at = t.clock_us + interval_us;
      cancelled = false;
      queued = true;
    }
  in
  push_timer t timer;
  timer

let pending t =
  let n = ref 0 in
  Array.iter (fun h -> n := !n + Event_heap.size h) t.heaps;
  !n

(* Purge threshold: compaction is O(total queued) and resets the debt,
   so amortised cost stays O(1) per cancel; requiring the cancelled
   share to be at least half the queued load bounds heap size at 2x the
   live load. Compaction preserves (time, seq) keys, so pop order of
   survivors is untouched. *)
let compact_min_cancelled = 64

let maybe_compact t =
  if
    t.cancelled_queued >= compact_min_cancelled
    && 2 * t.cancelled_queued >= pending t
  then begin
    Array.iter (fun h -> Event_heap.compact h ~keep:(fun tm -> not tm.cancelled)) t.heaps;
    t.cancelled_queued <- 0
  end

let cancel timer =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    if timer.queued then begin
      let e = timer.engine in
      e.cancelled_queued <- e.cancelled_queued + 1;
      maybe_compact e
    end
  end

(* Index of the heap holding the globally earliest (time, seq) entry,
   or -1 when every heap is empty. *)
let select t =
  let best = ref (-1) in
  let best_time = ref max_int and best_seq = ref max_int in
  for i = 0 to Array.length t.heaps - 1 do
    let h = t.heaps.(i) in
    if not (Event_heap.is_empty h) then begin
      let time = Event_heap.min_time h in
      if
        time < !best_time
        || (time = !best_time && Event_heap.min_seq h < !best_seq)
      then begin
        best := i;
        best_time := time;
        best_seq := Event_heap.min_seq h
      end
    end
  done;
  !best

let step_at t i =
  let heap = t.heaps.(i) in
  let time = Event_heap.min_time heap in
  let tm = Event_heap.pop_min heap in
  if time > t.clock_us then t.clock_us <- time;
  tm.queued <- false;
  if tm.cancelled then t.cancelled_queued <- t.cancelled_queued - 1
  else begin
    t.processed <- t.processed + 1;
    t.processed_by.(i) <- t.processed_by.(i) + 1;
    tm.callback ();
    (* Re-arm relative to the firing's *scheduled* time, not the
       clock at callback return: a callback that advances the clock
       (nested [run]) or pops late must not skew subsequent firings.
       Re-arming after the callback keeps insertion order — and hence
       same-timestamp tie-breaking — identical to scheduling done
       inside the callback itself. *)
    if tm.interval_us > 0 && not tm.cancelled then begin
      tm.next_at <- tm.next_at + tm.interval_us;
      tm.queued <- true;
      push_timer t tm
    end
  end

let step t =
  let i = select t in
  if i < 0 then false
  else begin
    step_at t i;
    true
  end

let run t ~until_us =
  let continue = ref true in
  while !continue do
    let i = select t in
    if i >= 0 && Event_heap.min_time t.heaps.(i) <= until_us then step_at t i
    else continue := false
  done;
  t.clock_us <- max t.clock_us until_us

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
  if shard < 0 || shard >= Array.length t.heaps then
    invalid_arg "Engine.heap_hi_water: shard out of range";
  Event_heap.hi_water t.heaps.(shard)

module Window = struct
  let peek_next t =
    let i = select t in
    if i < 0 then None else Some (i, Event_heap.min_time t.heaps.(i))

  let finish_run t ~until_us = t.clock_us <- max t.clock_us until_us
end

let pp_time_us ppf us =
  if us >= 1_000_000 then Format.fprintf ppf "%.3fs" (float_of_int us /. 1e6)
  else if us >= 1_000 then Format.fprintf ppf "%dms" (us / 1000)
  else Format.fprintf ppf "%dus" us
