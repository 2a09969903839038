(** Locally known certificate chain (grows only, audit-loggable). *)

type t

val create : genesis:Cert.t -> t
val current : t -> Cert.t
val epoch : t -> int

val cert_of_epoch : t -> int -> Cert.t option

(** Verify succession from the current head and append.  Idempotent
    for certs already in the chain; rejects forks and gaps. *)
val install : t -> Cert.t -> (unit, string) result

(** Derive the successor via {!Reconfig.apply}, then {!install} it. *)
val advance :
  t -> Reconfig.t -> signers:int list -> boundary_exec:int ->
  (Cert.t, string) result
