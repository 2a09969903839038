(** Deterministic discrete-event simulation engine.

    All protocol code in this repository is written against this engine:
    components schedule callbacks at future virtual times and the engine
    executes them in timestamp order (ties broken by scheduling order).
    Virtual time is in integer {b microseconds}.

    {b One queue.} Every timer lives in one hierarchical timing wheel
    (4 levels of 64 slots, 1 us to 262 ms wide, spanning the 2^24 us
    block that holds the wheel's cursor), with a binary heap for timers
    beyond that block and for timers below the cursor. The cursor is
    the wheel's position, at or after the clock: when the lowest level
    is empty it moves to the next occupied slot and cascades that slot
    down, so it can run ahead of the clock after {!Window.peek_next}
    ({!run} cascades no slot past its horizon). Scheduling and
    popping are O(1) on the wheel, and the executed stream is the
    [(time, scheduling order)] order.

    {b Sharding.} A timer may be tagged with an ownership shard (see
    {!Shard}). The tag is attribution only: it records {e which site's
    state} the callback touches, selecting the per-shard executed and
    queued counters ({!processed_of}, {!heap_hi_water}), and never
    changes when the callback runs. Shard 0 is the control shard for
    untagged timers.

    {b Saturation.} Times are saturated at [max_int]: a delay or
    interval that would carry the clock past it schedules the timer at
    [max_int] ("never" in practice), and a periodic timer whose next
    firing would pass [max_int] is not re-armed.

    {b Ownership.} An engine value owns all of its mutable state — there
    are no module-level globals — so independent engines (one per
    scenario instance) can run concurrently on different domains. A
    single engine must only ever be driven from one domain at a time. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type timer

(** [create ~seed ~shards ()] is a fresh engine whose root RNG is
    seeded with [seed], attributing events to [shards] shards
    (default 1). It allocates only in the minor heap.
    @raise Invalid_argument if [shards < 1]. *)
val create : ?seed:int64 -> ?shards:int -> unit -> t

(** [now t] is the current virtual time in microseconds. *)
val now : t -> int

(** [rng t] derives a fresh independent RNG stream from the engine's
    root stream. Call once per component at setup time. *)
val rng : t -> Rng.t

(** [shards t] is the number of attribution shards (>= 1). *)
val shards : t -> int

(** [one_shot t f] is an unqueued one-shot timer that runs [f ()] each
    time it is {!arm}ed and fires. A component that runs one event at a
    time (a link's transmit completion) creates it once and re-arms it,
    instead of allocating a timer and a closure per event. [shard] is
    as for {!schedule}. *)
val one_shot : ?shard:int -> t -> (unit -> unit) -> timer

(** [arm timer ~delay_us] queues an unqueued one-shot timer to fire at
    [now + delay_us], clamped and saturated as {!schedule}. It may be
    called from the timer's own callback. The timer takes its place in
    [(time, scheduling order)] exactly as a fresh {!schedule} made at the
    same point would, so re-arming one timer and scheduling fresh ones
    give the same event order and count.
    @raise Invalid_argument if the timer is queued, cancelled or
    periodic. *)
val arm : timer -> delay_us:int -> unit

(** [schedule t ~delay_us f] runs [f ()] at [now t + delay_us].
    Negative delays are clamped to 0 (run "now", after the current
    callback returns); a time past [max_int] saturates at [max_int].
    Returns a cancellable timer handle: a {!one_shot} armed at once.
    [shard] (default 0) tags the
    timer with its owning shard; out-of-range tags fall back to
    shard 0. *)
val schedule : ?shard:int -> t -> delay_us:int -> (unit -> unit) -> timer

(** [schedule_at t ~time_us f] runs [f ()] at absolute virtual time
    [time_us] (clamped to [now]). *)
val schedule_at : ?shard:int -> t -> time_us:int -> (unit -> unit) -> timer

(** [periodic t ~interval_us f] runs [f ()] every [interval_us] starting
    [interval_us] from now, until cancelled. Firings stay anchored to the
    original cadence: each one is re-armed at [scheduled_time +
    interval_us], so a callback that advances the clock (e.g. a nested
    {!run}) does not drift later firings; a timer that falls behind
    catches up by firing in quick succession. The first firing
    saturates at [max_int]; a firing that would pass it is never
    re-armed.
    @raise Invalid_argument if [interval_us <= 0]. *)
val periodic : ?shard:int -> t -> interval_us:int -> (unit -> unit) -> timer

(** [cancel timer] prevents a pending event from firing; idempotent. *)
val cancel : timer -> unit

(** {1 Places}

    An event's place is its [(time, scheduling order)] key: every timer
    queued takes the next scheduling order, and the run executes events
    in place order. A component that knows an event's only effect in
    advance can skip queueing it, {!reserve} the place it would have
    taken, and apply the effect once the run has {!passed} that place,
    under the state then in force. *)

(** [reserve t ~time_us] claims the scheduling order that a timer
    scheduled now at [time_us] (at or after [now t]) would take, and
    returns it; nothing is queued. An engine whose queue runs empty
    ({!step}, {!run_until_quiescent}) moves its clock to the latest
    reserved time if that is later, as the skipped events would
    have. *)
val reserve : t -> time_us:int -> int

(** [passed t ~time_us ~order] holds when the run has passed the place
    [(time_us, order)]: inside a callback, when the place precedes the
    running event's; after {!run}, when it was handed out before the
    run returned and [time_us] is at or before the horizon; after the
    queue ran empty, for every place handed out by then. *)
val passed : t -> time_us:int -> order:int -> bool

(** [run t ~until_us] executes events in order until the queue is empty
    or the next event is after [until_us]; afterwards [now t = until_us]
    (time always advances to the horizon). *)
val run : t -> until_us:int -> unit

(** [step t] executes the single globally earliest pending event (or
    pops one cancelled entry). Returns [false] when nothing is queued,
    after moving the clock to the latest {!reserve}d time if that is
    later. *)
val step : t -> bool

(** [run_until_quiescent t ?max_events ()] executes events until none
    remain; the clock then ends on the last event's time or the latest
    {!reserve}d time, whichever is later. @raise Failure if
    [max_events] is exceeded (runaway guard, default 100 million). *)
val run_until_quiescent : ?max_events:int -> t -> unit

(** [pending t] is the number of queued events, including cancelled
    ones not yet purged. *)
val pending : t -> int

(** [processed t] is the number of events executed so far. *)
val processed : t -> int

(** [processed_of t shard] is the number of events executed that were
    tagged [shard] — the per-site activity breakdown.
    [processed t = sum of processed_of t s over all shards].
    @raise Invalid_argument if [shard] is out of range. *)
val processed_of : t -> int -> int

(** [heap_hi_water t shard] is the peak number of simultaneously
    queued events tagged [shard], cancelled ones included until purged.
    @raise Invalid_argument if out of range. *)
val heap_hi_water : t -> int -> int

(** Manual stepping, for callers that interleave their own work with
    {!step} (the repository benchmark's traced run times each shard's
    events this way). [while peek_next ... step ...; finish_run] is
    equivalent to {!run}. *)
module Window : sig
  (** The next event's [(shard, time)], cancelled or not, if any.
      Never moves the clock. *)
  val peek_next : t -> (int * int) option

  (** Advance the clock to the run horizon, as {!run} does on exit.
      @raise Invalid_argument if an event is due at or before
      [until_us]. *)
  val finish_run : t -> until_us:int -> unit
end
