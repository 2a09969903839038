(** Deterministic discrete-event simulation engine.

    All protocol code in this repository is written against this engine:
    components schedule callbacks at future virtual times and the engine
    executes them in timestamp order (ties broken by scheduling order).
    Virtual time is in integer {b microseconds}.

    {b Sharding.} The engine can host several event heaps — one per
    ownership shard (see {!Shard}) — while still executing {e one}
    globally ordered stream: tie-breaking sequence numbers are allocated
    engine-wide, so the merged pop order across heaps is bit-identical
    to a single heap's regardless of how timers are tagged. Tagging a
    timer with its owning shard records {e which site's state} the
    callback touches; it never changes when the callback runs. Heap 0 is
    the control heap for untagged timers.

    {b Ownership.} An engine value owns all of its mutable state — there
    are no module-level globals — so independent engines (one per
    scenario instance) can run concurrently on different domains. A
    single engine must only ever be driven from one domain at a time. *)

type t

(** Handle to a scheduled event, usable with {!cancel}. *)
type timer

(** [create ~seed ~shards ()] is a fresh engine whose root RNG is
    seeded with [seed], hosting [shards] event heaps (default 1).
    @raise Invalid_argument if [shards < 1]. *)
val create : ?seed:int64 -> ?shards:int -> unit -> t

(** [now t] is the current virtual time in microseconds. *)
val now : t -> int

(** [rng t] derives a fresh independent RNG stream from the engine's
    root stream. Call once per component at setup time. *)
val rng : t -> Rng.t

(** [shards t] is the number of event heaps (>= 1). *)
val shards : t -> int

(** [schedule t ~delay_us f] runs [f ()] at [now t + delay_us].
    Negative delays are clamped to 0 (run "now", after the current
    callback returns). Returns a cancellable timer handle. [shard]
    (default 0) tags the timer with its owning heap; out-of-range tags
    fall back to heap 0. *)
val schedule : ?shard:int -> t -> delay_us:int -> (unit -> unit) -> timer

(** [schedule_at t ~time_us f] runs [f ()] at absolute virtual time
    [time_us] (clamped to [now]). *)
val schedule_at : ?shard:int -> t -> time_us:int -> (unit -> unit) -> timer

(** [periodic t ~interval_us f] runs [f ()] every [interval_us] starting
    [interval_us] from now, until cancelled. Firings stay anchored to the
    original cadence: each one is re-armed at [scheduled_time +
    interval_us], so a callback that advances the clock (e.g. a nested
    {!run}) does not drift later firings; a timer that falls behind
    catches up by firing in quick succession.
    @raise Invalid_argument if [interval_us <= 0]. *)
val periodic : ?shard:int -> t -> interval_us:int -> (unit -> unit) -> timer

(** [cancel timer] prevents a pending event from firing; idempotent. *)
val cancel : timer -> unit

(** [run t ~until_us] executes events in order until the queue is empty
    or the next event is after [until_us]; afterwards [now t = until_us]
    (time always advances to the horizon). *)
val run : t -> until_us:int -> unit

(** [step t] executes the single globally earliest pending event (or
    pops one cancelled entry). Returns [false] when every heap is
    empty. *)
val step : t -> bool

(** [run_until_quiescent t ?max_events ()] executes events until none
    remain. @raise Failure if [max_events] is exceeded (runaway guard,
    default 100 million). *)
val run_until_quiescent : ?max_events:int -> t -> unit

(** [pending t] is the number of queued events across all heaps. *)
val pending : t -> int

(** [processed t] is the number of events executed so far. *)
val processed : t -> int

(** [processed_of t shard] is the number of events executed from
    [shard]'s heap — the per-site activity breakdown.
    [processed t = sum of processed_of t s over all shards].
    @raise Invalid_argument if [shard] is out of range. *)
val processed_of : t -> int -> int

(** [heap_hi_water t shard] is the high-water occupancy of [shard]'s
    event heap — the maximum number of simultaneously queued events it
    has ever held. @raise Invalid_argument if out of range. *)
val heap_hi_water : t -> int -> int

(** Manual stepping, for callers that interleave their own work with
    {!step} (the repository benchmark's traced run times each heap's
    events this way). [while peek_next ... step ...; finish_run] is
    equivalent to {!run}. *)
module Window : sig
  (** Earliest pending [(heap, time)] across all heaps, if any. *)
  val peek_next : t -> (int * int) option

  (** Advance the clock to the run horizon, as {!run} does on exit. *)
  val finish_run : t -> until_us:int -> unit
end

(** Pretty time: microseconds rendered as e.g. ["1.250s"] or ["750ms"]. *)
val pp_time_us : Format.formatter -> int -> unit
