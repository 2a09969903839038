(** Deterministic pseudo-random number generator (SplitMix64).

    The simulator never uses the global [Random] state: every component
    derives its own stream from a root seed via {!split}, so experiment
    runs are reproducible bit-for-bit regardless of module initialisation
    order.

    State is held unboxed in bytes, and every draw inlines the SplitMix
    step, so drawing an [int], [float], [bool] or [bernoulli] allocates
    nothing. A {!Bank} holds many streams in one buffer; {!t} is the
    one-stream bank, so there is one SplitMix implementation. *)

type t

(** [create seed] is a generator seeded with [seed]. *)
val create : int64 -> t

(** [split t] derives an independent generator from [t], advancing [t]. *)
val split : t -> t

(** [derive ~seed ~index] is the seed for the [index]-th instance of a
    sweep rooted at [seed] — a pure function of its arguments (no
    generator state is read or advanced), so any parallel worker can
    derive any instance's seed independently and the assignment of
    instances to domains cannot perturb the streams.
    @raise Invalid_argument if [index < 0]. *)
val derive : seed:int64 -> index:int -> int64

(** [next_int64 t] is the next raw 64-bit output. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [0., bound). *)
val float : t -> float -> float

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is true with probability [p] (clamped to [0,1]). *)
val bernoulli : t -> float -> bool

(** [exponential t ~mean] samples an exponential with the given mean. *)
val exponential : t -> mean:float -> float

(** [gaussian t ~mean ~stddev] samples a normal via Box-Muller. *)
val gaussian : t -> mean:float -> stddev:float -> float

(** [pick t arr] is a uniformly random element of [arr].
    @raise Invalid_argument if [arr] is empty. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] shuffles [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit

(** [n] independent SplitMix64 streams in one flat buffer (8 bytes
    each), indexed [0 .. n-1]: a fleet keeps one bank instead of [n]
    generators. Stream [i] of [create n seed] draws exactly what
    [Rng.create (seed i)] would. *)
module Bank : sig
  type t

  (** [create n seed] is a bank whose stream [i] is seeded [seed i]. *)
  val create : int -> (int -> int64) -> t

  val length : t -> int

  (** [int b i bound] and [bernoulli b i p] draw from stream [i], as
      {!Rng.int} and {!Rng.bernoulli} do.
      @raise Invalid_argument if [bound <= 0]. *)
  val int : t -> int -> int -> int

  val bernoulli : t -> int -> float -> bool
end
