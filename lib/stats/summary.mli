(** Streaming summary statistics.

    A [Summary.t] accumulates observations one at a time and can report
    count, mean and max at any point without retaining the observations
    themselves. *)

type t

(** [create ()] is an empty accumulator. *)
val create : unit -> t

(** [add t x] records the observation [x]. *)
val add : t -> float -> unit

(** [count t] is the number of observations recorded so far. *)
val count : t -> int

(** [mean t] is the arithmetic mean, or [nan] if no observations. *)
val mean : t -> float

(** [max_value t] is the largest observation, or [nan] if empty. *)
val max_value : t -> float

(** [merge a b] is a fresh accumulator equivalent to having recorded all
    observations of [a] followed by all observations of [b]. *)
val merge : t -> t -> t
