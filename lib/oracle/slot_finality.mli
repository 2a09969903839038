(** Slot-finality oracle: the safety invariant of the ordering layer.

    Every correct replica that applies ordering slot [seq] of an epoch
    must apply the same matrix there. The harness feeds each apply as it
    happens, so a replica that applies a different matrix fails the
    oracle at that slot, before its execution log shows the divergence.

    The map holds one digest per [(epoch, seq)] ever applied; a soak
    run applies a few hundred slots. *)

type t

val create : unit -> t

(** [observe t ~epoch ~replica ~seq ~digest] records that correct
    [replica] applied the matrix with [digest] at slot [seq] of
    [epoch]. The first digest applied at a slot is final; a different
    one from any replica latches a failure naming both replicas. *)
val observe :
  t ->
  epoch:int ->
  replica:Bft.Types.replica ->
  seq:Bft.Types.seqno ->
  digest:Cryptosim.Digest.t ->
  unit

val verdict : t -> Verdict.t

(** [checks t] counts applies observed. *)
val checks : t -> int
