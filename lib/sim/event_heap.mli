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

(** [push_keyed t ~time ~seq event] inserts [event] with an explicit
    tie-breaking sequence number, so a caller can key several heaps by
    one shared insertion order. The internal counter used by {!push} is
    bumped past [seq] so mixing the two cannot create duplicate keys. *)
val push_keyed : 'a t -> time:int -> seq:int -> 'a -> unit

(** [pop t] removes and returns the earliest event as [(time, event)],
    or [None] if empty. Allocates the option/tuple; the hot loop should
    use {!min_time} + {!pop_min} instead. *)
val pop : 'a t -> (int * 'a) option

(** [min_time t] is the timestamp of the earliest event without
    removing it. @raise Invalid_argument on an empty heap — check
    {!is_empty} first on the hot path. *)
val min_time : 'a t -> int

(** [min_seq t] is the tie-breaking sequence number of the earliest
    event — the second component of the heap's min key.
    @raise Invalid_argument on an empty heap. *)
val min_seq : 'a t -> int

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

(** [hi_water t] is the maximum number of events ever simultaneously
    queued over the heap's lifetime (high-water occupancy). *)
val hi_water : 'a t -> int

(** [is_empty t] is [size t = 0]. *)
val is_empty : 'a t -> bool
