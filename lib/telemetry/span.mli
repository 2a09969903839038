(** Causal spans over the simulated update pipeline.

    A span is one timed interval of work attributed to a {!phase} of
    the update lifecycle, stamped in virtual microseconds. Because the
    discrete-event engine runs every node against a single global
    clock, intervals taken at different nodes are directly comparable
    and contiguous phase intervals sum exactly to the end-to-end
    latency they decompose. *)

(** Phase taxonomy. The first seven are the critical-path decomposition
    of one update's life (each starts where the previous one ends):

    - [End_to_end]: client submit to threshold-combined confirmation
      (the root span; the six below are its children).
    - [Batch_wait]: submit until the endpoint flushes the batch the
      update rode in ([Bft.Batch] size/deadline policy). Zero width
      when batching is off ([max_batch = 1]).
    - [Ingress]: batch flush at the proxy/HMI endpoint until the first
      replica receives the [Client_update] (or [Client_batch]).
    - [Preorder]: first replica receipt until the update is orderable
      — Prime: the order-quorum-th distinct replica stores the
      pre-ordered body; PBFT: the leader takes it up for proposal.
    - [Ordering]: orderable until the reply-quorum-th distinct replica
      has executed it (the k-th executor, [r*]).
    - [Execution]: [r*]'s execution until [r*] sends its
      threshold-share reply (share signing cost).
    - [Reply]: [r*]'s reply send until the client combines f+1 shares.

    The [Net_*] phases are per-hop overlay detail (not part of the
    sum-to-end-to-end set): time spent queued behind other frames,
    occupying a link, waiting out ARQ retransmissions, and
    propagating. *)
type phase =
  | End_to_end
  | Batch_wait
  | Ingress
  | Preorder
  | Ordering
  | Execution
  | Reply
  | Net_queue
  | Net_transmit
  | Net_arq
  | Net_propagate

val phase_count : int
val phase_index : phase -> int
val all_phases : phase array

(** Stable lower-case name, e.g. ["net.queue"]. *)
val phase_name : phase -> string

val phase_of_name : string -> phase option

type t = {
  id : int;
  parent : int;  (** parent span id, or [-1] for a root span *)
  trace : int;  (** owning trace id (see {!trace_id}), or [-1] *)
  phase : phase;
  node : int;  (** replica / overlay node id, or [-1] *)
  label : string;
  t_start : int;  (** virtual µs *)
  t_end : int;  (** virtual µs *)
}

val duration : t -> int

(** Pack an update identity [(client, client_seq)] into one trace id. *)
val trace_id : client:int -> seq:int -> int

val trace_client : int -> int
val trace_seq : int -> int

(** Sentinel for "no trace context" ([-1]). *)
val no_trace : int

val pp : Format.formatter -> t -> unit
