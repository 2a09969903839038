(** Client updates — the unit of work ordered by the replication engine.

    In Spire an update is a SCADA event: a substation proxy's status
    report or an HMI supervisory command. Updates are identified by
    [(client, client_seq)]; the pair is unique and lets replicas
    deduplicate retransmissions and multi-path deliveries. *)

type t = private {
  client : Types.client;
  client_seq : int;  (** per-client monotonically increasing *)
  operation : string;  (** opaque application payload (encoded SCADA op) *)
  submitted_us : int;  (** virtual time the client created the update *)
  digest : Cryptosim.Digest.t;  (** {!digest}, computed by {!create} *)
}

(** [create ~client ~client_seq ~operation ~submitted_us]. *)
val create :
  client:Types.client -> client_seq:int -> operation:string -> submitted_us:int -> t

(** [key u] is the identity pair [(client, client_seq)]. *)
val key : t -> Types.client * int

(** [digest u] hashes the identity and payload (not the submission
    time, so retransmissions hash identically): the digest of
    ["update:%d:%d:%s"] over client, sequence and operation. *)
val digest : t -> Cryptosim.Digest.t

val equal : t -> t -> bool
val compare_key : t -> t -> int
val pp : Format.formatter -> t -> unit
