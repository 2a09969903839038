(** Batching policy and the one accumulator every batching layer uses.

    An ordering slot may carry a {e batch} of updates instead of exactly
    one: the client endpoint aggregates updates into [Client_batch]
    frames, the Prime replica aggregates pre-ordering into [Po_batch],
    and each replica aggregates its replies into [Reply_batch] frames.
    A batch flushes when it reaches [max_batch] items or when the oldest
    buffered item has waited [max_delay_us], whichever comes first.

    The accumulator owns that decision; a caller only ships what it is
    told to ship. [singleton] ([max_batch = 1]) is not a separate path:
    every item is a generation of one and flushes on {!add}, with no
    queue, no timer and no deadline read. Callers emit the legacy
    single-update frame for a flush of one item, so the wire trajectory
    at [max_batch = 1] is bit-identical to an unbatched pipeline. *)

type policy = {
  max_batch : int;  (** flush when this many items are buffered (>= 1) *)
  max_delay_us : int;
      (** flush when the oldest buffered item has waited this long *)
}

(** The default: no batching, no timers, legacy frames. *)
val singleton : policy

val create : ?max_delay_us:int -> max_batch:int -> unit -> policy

(** A live accumulator: the buffered generation and its policy, which
    is fixed when the accumulator is made. *)
type 'a acc

val acc : policy -> 'a acc

(** What the caller must do after {!add}. *)
type 'a action =
  | Solo  (** the added item is a generation of one: ship it alone, now *)
  | Flush of 'a list  (** the generation is full: ship these, oldest first *)
  | Arm of int
      (** the item opened a new generation: arm one timer of this many
          µs whose callback ships {!due} *)
  | Wait  (** buffered; the generation's timer is already armed *)

(** [add a ~now x] buffers [x] (arrival time [now]) and says what to do.
    Under [max_batch = 1] the item skips the queue and the answer is
    [Solo]. *)
val add : 'a acc -> now:int -> 'a -> 'a action

(** [due a ~now] drains the buffered generation if its deadline has
    passed, and is [[]] otherwise. A generation timer that fires after
    its generation already flushed on size finds the next generation
    not yet due, so no item ships early or twice. *)
val due : 'a acc -> now:int -> 'a list

(** [clear a] drops the buffered generation (state reset). *)
val clear : 'a acc -> unit
