(** Identifiers shared by every replication protocol in this repository. *)

type replica = int
(** Replica index in [0 .. n-1]. *)

type client = int
(** Client identity (a SCADA proxy or HMI in Spire). *)

type view = int
(** View number; the leader of view [v] with [n] replicas is [v mod n]. *)

type seqno = int
(** Global ordering sequence number (1-based). *)

(** [leader_of ~n view] is the leader replica of [view]. *)
val leader_of : n:int -> view -> replica
