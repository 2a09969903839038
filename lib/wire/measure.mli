(** Measured frame sizes: the byte length each codec would produce,
    computed directly from the value without encoding it.

    Every function obeys the law

    {v size v = String.length (encode v) v}

    against the corresponding {!Codec} / {!Message} encoder (checked by
    qcheck over all message constructors). [Envelope.size] is built on
    {!message}, which makes per-send byte accounting an arithmetic walk
    over the value instead of a full serialisation — the difference
    between O(bytes) of allocation and none on the hot path. *)

val update : Bft.Update.t -> int
val prime : Prime.Msg.t -> int
val pbft : Pbft.Msg.t -> int
val reply : Scada.Reply.t -> int
val chunk : Recovery.State_transfer.chunk -> int

(** [message m] = [String.length (Message.encode m)] — the bare body
    size, before envelope framing. *)
val message : Message.t -> int

(** [field_report_message ~events] = [message (Field_report r)] for
    every report [r] carrying [events] events: an event's size does not
    depend on its contents. *)
val field_report_message : events:int -> int

(** [field_advert_message] = [message (Field_advert a)] for every
    advert [a]. *)
val field_advert_message : int
