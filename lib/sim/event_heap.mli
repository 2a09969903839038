(** Binary min-heap of timed events, held in parallel unboxed arrays so
    pushes allocate nothing in steady state.

    Events are ordered by [(time, sequence)] where [sequence] is the
    insertion order; this makes the simulation deterministic when many
    events share a timestamp. {!Engine}'s timing wheel keeps its far
    and late overflow here: timers beyond the wheel's 2^24 us block,
    and periodic re-arms left behind the clock by a nested run. *)

type 'a t

(** [create ()] is an empty heap. *)
val create : unit -> 'a t

(** [push t ~time event] inserts [event] at [time]. *)
val push : 'a t -> time:int -> 'a -> unit

(** [pop t] removes and returns the earliest event as [(time, event)],
    or [None] if empty. Allocates the option/tuple; the hot loop should
    use {!min_time} + {!pop_min} instead. *)
val pop : 'a t -> (int * 'a) option

(** [min_time t] is the timestamp of the earliest event without
    removing it. @raise Invalid_argument on an empty heap — check
    {!is_empty} first on the hot path. *)
val min_time : 'a t -> int

(** [min_event t] is the earliest event without removing it.
    @raise Invalid_argument on an empty heap. *)
val min_event : 'a t -> 'a

(** [pop_min t] removes and returns the earliest event with no
    option/tuple boxing. @raise Invalid_argument on an empty heap. *)
val pop_min : 'a t -> 'a

(** [compact t ~keep] removes every queued event for which [keep]
    returns [false]. Surviving entries retain their original
    [(time, sequence)] keys, so subsequent pop order is unchanged —
    used to purge cancelled timers without disturbing determinism. *)
val compact : 'a t -> keep:('a -> bool) -> unit

(** [size t] is the number of queued events. *)
val size : 'a t -> int

(** [is_empty t] is [size t = 0]. *)
val is_empty : 'a t -> bool
