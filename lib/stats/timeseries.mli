(** Time series of (timestamp, value) samples with windowed aggregation.

    Timestamps are in microseconds of virtual time (the unit used by the
    simulation engine). Samples must be appended in non-decreasing
    timestamp order. *)

type t

(** [create ()] is an empty series. *)
val create : unit -> t

(** [add t ~time_us value] appends a sample.
    @raise Invalid_argument if [time_us] precedes the last sample. *)
val add : t -> time_us:int -> float -> unit

(** [to_list t] is all samples oldest-first as [(time_us, value)]. *)
val to_list : t -> (int * float) list

(** [bucketed t ~bucket_us] aggregates samples into fixed-width time
    buckets; each bucket is [(bucket_start_us, per-bucket summary)].
    Empty buckets between populated ones are omitted. *)
val bucketed : t -> bucket_us:int -> (int * Summary.t) list

(** [max_in_buckets t ~bucket_us] is, for each populated bucket, the
    maximum sample value — useful for "worst latency per interval"
    figures. *)
val max_in_buckets : t -> bucket_us:int -> (int * float) list

(** [span_us t] is [last_time - first_time], or 0 if fewer than 2 samples. *)
val span_us : t -> int
