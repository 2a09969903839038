(** Exact-percentile histogram over float observations.

    Unlike {!Summary}, a histogram retains every observation (in a growable
    buffer) so it can answer arbitrary percentile and CDF queries exactly.
    Intended for latency measurements where experiment sizes are bounded
    (millions of points at most). *)

type t

(** [create ()] is an empty histogram. *)
val create : unit -> t

(** [add t x] records observation [x]. *)
val add : t -> float -> unit

(** [count t] is the number of observations. *)
val count : t -> int

(** [percentile t p] is the [p]-th percentile with [p] in [0., 100.],
    using linear interpolation between closest ranks.
    @raise Invalid_argument if the histogram is empty or [p] out of range. *)
val percentile : t -> float -> float

(** [mean t] is the arithmetic mean.
    @raise Invalid_argument if empty. *)
val mean : t -> float

(** [min_value t], [max_value t]: extreme observations.
    @raise Invalid_argument if empty. *)
val min_value : t -> float

val max_value : t -> float

(** [fraction_below t x] is the fraction of observations strictly less
    than or equal to [x]; 0 if empty. *)
val fraction_below : t -> float -> float

(** [cdf t ~points] samples the empirical CDF at [points] evenly spaced
    values between min and max, returned as [(value, cumulative_fraction)]
    pairs. *)
val cdf : t -> points:int -> (float * float) list

(** [pp ppf t] prints a one-line summary with p50/p90/p99/p99.9. *)
val pp : Format.formatter -> t -> unit
