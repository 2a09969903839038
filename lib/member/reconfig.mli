(** Reconfiguration commands ordered through the BFT stream.

    A command is an atomic list of actions producing the successor
    certificate.  The byte codec is versioned and stable so commands
    can be carried as opaque SCADA payloads and replayed from logs. *)

type action =
  | Set_resilience of { f : int; k : int }
  | Remove_site of int
  | Add_site of { site_id : int; role : Cert.role; members : int list }
  | Promote of int

type t = action list

val encode : t -> string

(** Total parse of [encode]'s output; rejects trailing bytes, unknown
    versions, tags and roles. *)
val decode : string -> (t, string) result

(** [apply prev actions ~signers ~boundary_exec] derives the next
    epoch's certificate, validating both the individual actions and
    the resulting certificate's succession from [prev]. *)
val apply :
  Cert.t -> t -> signers:int list -> boundary_exec:int ->
  (Cert.t, string) result

val pp : Format.formatter -> t -> unit
