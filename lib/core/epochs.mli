(** The epoch manager of online reconfiguration: the certificate
    directory, each epoch's membership (rank maps) and threshold group,
    which epoch every replica's running instance belongs to, frame
    admission by epoch, epoch cutovers, the background reconciler that
    walks lagging and newly admitted members through a chunk-gated
    vouched state transfer, and state transfer itself ({!resync}).

    It owns all of that state. The deployment's replica table and
    masters stay with the caller, which hands in the operations the
    manager needs on them at {!create}. Replica [r]'s overlay node is
    node [r]. *)

type t

(** [create ... ~genesis ~group ...] starts at epoch 0 with [genesis]'s
    members (ids [0 .. n-1]) active under [group]; every other id below
    [universe] is standby. [shard_of r] is the engine shard of replica
    [r]'s timers. [instance]/[set_instance] read and replace a
    replica's running instance, [master]/[set_master] its SCADA
    master, and [build ~cert ~members ~rank ~global] makes the
    (unstarted) instance replica [global] runs as [rank] of [cert]'s
    epoch, whose members are [members]. *)
val create :
  engine:Sim.Engine.t ->
  net:Wire.Message.t Overlay.Net.t ->
  send:Send.t ->
  telemetry:Telemetry.Sink.t ->
  seed:int64 ->
  universe:int ->
  genesis:Member.Cert.t ->
  group:Cryptosim.Threshold.group ->
  shard_of:(int -> int) ->
  instance:(int -> Instance.t) ->
  set_instance:(int -> Instance.t -> unit) ->
  master:(int -> Scada.Master.t) ->
  set_master:(int -> Scada.Master.t -> unit) ->
  build:
    (cert:Member.Cert.t -> members:int array -> rank:int -> global:int ->
    Instance.t) ->
  t

val directory : t -> Member.Directory.t

(** [current_epoch t] — highest epoch any replica has activated. *)
val current_epoch : t -> int

(** [epoch_of t r] — the epoch of [r]'s running instance, [-1] for
    standby and retired replicas. *)
val epoch_of : t -> int -> int

(** [members t] — the current epoch's members in rank order (the
    manager's own array: do not mutate). *)
val members : t -> int array

(** [members_of_epoch t e] — epoch [e]'s members in rank order, if
    known. *)
val members_of_epoch : t -> int -> int array option

val stale_epoch_frames : t -> int

(** [cutovers t] — [(epoch, boundary_exec, time_us)], oldest first. *)
val cutovers : t -> (int * int * int) list

val epoch_violation : t -> string option

(** [on_epoch_change t f] — [f epoch] at each cutover, newest
    registration first. *)
val on_epoch_change : t -> (int -> unit) -> unit

(** [on_group t f] — [f group] with the new epoch's threshold group at
    each cutover, before the {!on_epoch_change} listeners, in
    registration order. *)
val on_group : t -> (Cryptosim.Threshold.group -> unit) -> unit

(** [group_for t r] — the threshold group of [r]'s own epoch (the
    genesis group for standby and retired replicas). *)
val group_for : t -> int -> Cryptosim.Threshold.group

(** [epoch_activity t] — [(epoch, live replicas)], ascending. *)
val epoch_activity : t -> (int * int) list

(** [sender_rank t r ~from frame] admits a protocol frame ([Prime_msg],
    [Pbft_msg] or [Epoch_frame]) sent by node [from] to replica [r]: the
    sender's rank in the frame's epoch, or [-1] — counted as a stale
    frame — when that epoch is not [r]'s or [from] is not one of its
    members. *)
val sender_rank : t -> int -> from:int -> Wire.Message.t -> int

(** [install_cert t cert] audits a gossiped certificate into the
    directory (idempotent; forks and gaps are ignored). *)
val install_cert : t -> Member.Cert.t -> unit

(** [note_reconfig t r ~payload] — replica [r] executed an ordered
    reconfiguration: if it decodes and applies to [r]'s epoch, [r]
    halts and switches to the successor epoch once the boundary batch
    drains; otherwise it is a no-op at every replica alike. *)
val note_reconfig : t -> int -> payload:string -> unit

(** [handle_transfer_chunk t r chunk] — a join chunk delivered to
    replica [r]; the last missing one installs the joined instance. *)
val handle_transfer_chunk : t -> int -> Recovery.State_transfer.chunk -> unit

(** [resync t r] — replica [r] adopts a strictly newer state vouched
    for by [f+1] live peers of its own epoch (Prime only; no-op for
    standby, retired or halted replicas). *)
val resync : t -> int -> unit
