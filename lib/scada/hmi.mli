(** Human-Machine Interface model: the operator console.

    An HMI issues supervisory commands (breaker open/close, transformer
    tap moves) and ordered reads against the replicated SCADA master,
    validating threshold-signed confirmations like any other client.
    Scenario scripts drive it at chosen virtual times. *)

type t

(** [telemetry] (default {!Telemetry.Sink.null}) traces the lifecycle
    of every update this HMI issues. [batch]/[submit_batch] are
    forwarded to the underlying {!Endpoint}, as for a proxy: commands
    accumulate under the size/deadline policy and flush as one client
    batch. [shard] (default 0) tags the endpoint's timers with the
    owning engine shard ({!Sim.Shard}). *)
val create :
  ?telemetry:Telemetry.Sink.t ->
  ?batch:Bft.Batch.policy ->
  ?submit_batch:(Bft.Update.t list -> unit) ->
  ?shard:int ->
  engine:Sim.Engine.t ->
  client_id:Bft.Types.client ->
  group:Cryptosim.Threshold.group ->
  resubmit_timeout_us:int ->
  submit:(attempt:int -> Bft.Update.t -> unit) ->
  unit ->
  t

val start : t -> unit

(** [open_breaker t ~rtu ~breaker] / [close_breaker t ~rtu ~breaker]
    issue a supervisory command; returns the submitted update. *)
val open_breaker : t -> rtu:int -> breaker:int -> Bft.Update.t

val close_breaker : t -> rtu:int -> breaker:int -> Bft.Update.t

(** [set_tap t ~rtu ~position] issues a transformer-tap command. *)
val set_tap : t -> rtu:int -> position:int -> Bft.Update.t

(** [read_state t] issues an ordered read of the master state. *)
val read_state : t -> Bft.Update.t

val handle_reply : t -> Reply.t -> unit
val endpoint : t -> Endpoint.t

(** [confirmed_commands t] counts confirmed updates. *)
val confirmed_commands : t -> int
