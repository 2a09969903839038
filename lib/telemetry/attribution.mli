(** Per-phase latency-attribution tables.

    Summarises a sink's lifecycle histograms into one row per phase
    (count, mean, p50, p99, share of end-to-end) and checks that the
    phase means sum back to the measured end-to-end mean. Because the
    sink materialises contiguous phase intervals, each individual
    trace's phases sum {e exactly} to its end-to-end latency; the mean
    check only absorbs float accumulation error ({!tolerance_us}). *)

type row = {
  phase : Span.phase;
  count : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
}

type t = {
  rows : row list;  (** the five lifecycle phases, pipeline order *)
  e2e : row option;  (** [None] when no update confirmed *)
  sum_mean_us : float;  (** sum of phase means *)
  delta_us : float;  (** [sum_mean_us] minus end-to-end mean *)
  reconciled : bool;  (** |delta| <= {!tolerance_us} *)
}

(** Reconciliation tolerance for the mean check: 1 µs. *)
val tolerance_us : float

val build : Sink.t -> t

(** [phase_row t phase] is the lifecycle row for [phase], if any update
    traversed it. *)
val phase_row : t -> Span.phase -> row option

(** Build, print the table and a one-line reconciliation verdict. *)
val print : ?title:string -> Sink.t -> unit

(** Per-hop network detail table (queue / transmit / ARQ / propagate
    span histograms); prints nothing when no net spans were taken. *)
val print_net : ?title:string -> Sink.t -> unit
