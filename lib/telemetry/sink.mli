(** Bounded collection point for telemetry spans.

    A sink owns (a) a drop-oldest {!Ring} of finished spans, (b) a
    table of still-open spans, (c) a registry of in-flight update
    traces accumulating lifecycle milestones, and (d) per-phase
    latency histograms.

    {b Zero cost when disabled.} Every entry point first tests
    {!enabled} (a single immutable bool) and returns immediately when
    false; a disabled sink never allocates past construction. Hot
    paths that cannot afford even a call can share the {!null} sink or
    guard on an [int >= 0] trace id.

    {b Update lifecycle.} Instrumentation reports milestones via the
    [update_*] functions; nothing is recorded per-milestone except a
    timestamp (first writer wins, so client resubmissions do not move
    milestones). When {!update_confirmed} fires, the sink materialises
    the six lifecycle spans of {!Span.phase} in one go — clamping any
    out-of-order milestone to keep intervals non-negative (counted in
    {!clamped}) and substituting a missing milestone with its
    predecessor (zero-width phase, counted in {!incomplete}) — so the
    five child phases always sum {e exactly} to the end-to-end span. *)

type t

(** [create ~enabled ()] makes a sink. [capacity] bounds the finished
    span ring (default 65536); [pending_cap] bounds the in-flight
    trace registry (default 8192, oldest abandoned beyond that). *)
val create : ?capacity:int -> ?pending_cap:int -> enabled:bool -> unit -> t

(** A shared, permanently disabled sink: safe default wherever a sink
    is required. *)
val null : t

val enabled : t -> bool

(** Quorum thresholds deciding the [Preorder]→[Ordering] and
    [Ordering]→[Execution] milestones: [order] is the number of
    distinct replicas that must report {!update_body} before the
    update counts as orderable; [reply] the number of distinct
    executions before it counts as executed. Defaults 1/1. *)
val set_quorums : t -> order:int -> reply:int -> unit

(** {2 Update-lifecycle milestones} *)

val update_submitted : t -> trace:int -> now:int -> unit

(** [update_batched]: the client endpoint flushed the batch carrying
    this update ([Bft.Batch] size/deadline policy); under
    [max_batch = 1] it fires at submit time. Optional — when it never
    fires, the batch-wait phase materialises with zero width at the
    submit time and the trace is {e not} counted incomplete. *)
val update_batched : t -> trace:int -> now:int -> unit

val update_at_origin : t -> trace:int -> now:int -> unit

(** [update_body]: a replica stored the pre-ordered body (Prime
    po_request / PBFT pre-prepare payload). The order-quorum-th
    distinct replica sets the orderable milestone.
    @raise Invalid_argument if [replica > 61] on an enabled sink:
    replica sets are bits of one native int. *)
val update_body : t -> trace:int -> replica:int -> now:int -> unit

(** Explicit orderable milestone (PBFT leader takes the update up for
    proposal). First of [update_orderable] / quorum-th [update_body]
    wins. *)
val update_orderable : t -> trace:int -> now:int -> unit

(** [update_executed]: a replica executed the update. The
    reply-quorum-th distinct replica sets the execution milestone.
    @raise Invalid_argument if [replica > 61] on an enabled sink. *)
val update_executed : t -> trace:int -> replica:int -> now:int -> unit

(** Reply send by the reply-quorum-th executor [r*]; other replicas'
    reply sends are ignored. *)
val update_reply_sent : t -> trace:int -> replica:int -> now:int -> unit

val update_confirmed : t -> trace:int -> now:int -> unit

(** {2 Generic spans} (overlay per-hop instrumentation) *)

(** [open_span t ~phase ~node ~label ~now] starts a span and returns
    its id ([-1] when disabled — all other span functions accept and
    ignore [-1]). *)
val open_span :
  t ->
  ?parent:int ->
  ?trace:int ->
  phase:Span.phase ->
  node:int ->
  label:string ->
  now:int ->
  unit ->
  int

val close_span : t -> id:int -> now:int -> unit

(** Discard an open span without recording it (e.g. its frame was
    dropped). *)
val cancel_span : t -> id:int -> unit

(** {2 Introspection} *)

(** Finished spans, oldest first. *)
val spans : t -> Span.t list

(** Per-phase duration histogram (µs). Lifecycle phases are fed at
    confirmation; [Net_*] phases at span close. *)
val hist : t -> Span.phase -> Stats.Histogram.t

val open_count : t -> int
val opened : t -> int
val closed : t -> int

(** Spans evicted from the finished ring by overwrite. *)
val ring_dropped : t -> int

val confirmed : t -> int
val incomplete : t -> int
val clamped : t -> int

(** In-flight traces abandoned to honour [pending_cap], plus open
    spans discarded via {!cancel_span}. *)
val abandoned : t -> int

val pending_count : t -> int
