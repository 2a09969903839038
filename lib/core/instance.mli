(** One replica's running protocol instance: Prime, or the PBFT
    baseline. A deployment holds one per global replica id and replaces
    it wholesale at an epoch cutover or a join. *)

type t = Prime_replica of Prime.Replica.t | Pbft_replica of Pbft.Replica.t

val faults : t -> Bft.Faults.t
val view : t -> Bft.Types.view
val exec_log : t -> Bft.Exec_log.t
val halted : t -> bool
val halt : t -> unit
val start : t -> unit
val submit : t -> Bft.Update.t -> unit
