(** Deterministic discrete-event simulation engine.

    All protocol code in this repository is written against this engine:
    components schedule callbacks at future virtual times and the engine
    executes them in timestamp order (ties broken by scheduling order).
    Virtual time is in integer {b microseconds}.

    {b One queue.} Every timer lives in one hierarchical timing wheel
    (4 levels of 64 slots, 1 us to 262 ms wide, spanning the 2^24 us
    block that holds the clock), with a binary heap for timers beyond
    that block and for periodic re-arms left behind the clock by a
    nested {!run}. Scheduling and popping are O(1) on the wheel, and
    the executed stream is the [(time, scheduling order)] order.

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

(** [schedule t ~delay_us f] runs [f ()] at [now t + delay_us].
    Negative delays are clamped to 0 (run "now", after the current
    callback returns); a time past [max_int] saturates at [max_int].
    Returns a cancellable timer handle. [shard] (default 0) tags the
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

(** [run t ~until_us] executes events in order until the queue is empty
    or the next event is after [until_us]; afterwards [now t = until_us]
    (time always advances to the horizon). *)
val run : t -> until_us:int -> unit

(** [step t] executes the single globally earliest pending event (or
    pops one cancelled entry). Returns [false] when nothing is
    queued. *)
val step : t -> bool

(** [run_until_quiescent t ?max_events ()] executes events until none
    remain. @raise Failure if [max_events] is exceeded (runaway guard,
    default 100 million). *)
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

(** Pretty time: microseconds rendered as e.g. ["1.250s"] or ["750ms"]. *)
val pp_time_us : Format.formatter -> int -> unit
