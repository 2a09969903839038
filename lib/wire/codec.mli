(** Binary codecs for the entire protocol message vocabulary.

    Each protocol type gets an [encode_x : x -> string] /
    [decode_x : string -> (x, Rw.error) result] pair. Encodings are
    deterministic (equal values produce identical bytes), big-endian,
    and self-delimiting; decoders are total — truncated, mutated or
    arbitrary input yields [Error], never an exception.

    Scalar conventions: replica/client ids u16, sequence numbers, views
    and pre-order counters u32, virtual timestamps i64, digests 8 raw
    bytes, byte strings u32-length-prefixed, lists u16-counted. SCADA
    operations reuse the byte-level application encoding of
    {!Scada.Op.encode} (which itself frames DNP3-style payloads), so an
    update's operation travels as the same bytes a field device sees. *)

(** {1 Per-type codecs} *)

val encode_update : Bft.Update.t -> string
val decode_update : string -> (Bft.Update.t, Rw.error) result

val encode_prime : Prime.Msg.t -> string
val decode_prime : string -> (Prime.Msg.t, Rw.error) result

val encode_pbft : Pbft.Msg.t -> string
val decode_pbft : string -> (Pbft.Msg.t, Rw.error) result

val encode_op : Scada.Op.t -> string
val decode_op : string -> (Scada.Op.t, Rw.error) result

val encode_reply : Scada.Reply.t -> string
val decode_reply : string -> (Scada.Reply.t, Rw.error) result

val encode_chunk : Recovery.State_transfer.chunk -> string
val decode_chunk : string -> (Recovery.State_transfer.chunk, Rw.error) result

(** {1 Writer/reader forms}

    Exposed so composite codecs (the system message union, the
    envelope) can embed sub-messages without re-framing. *)

val w_update : Rw.writer -> Bft.Update.t -> unit
val r_update : Rw.reader -> Bft.Update.t
val w_prime : Rw.writer -> Prime.Msg.t -> unit
val r_prime : Rw.reader -> Prime.Msg.t
val w_pbft : Rw.writer -> Pbft.Msg.t -> unit
val r_pbft : Rw.reader -> Pbft.Msg.t
val w_reply : Rw.writer -> Scada.Reply.t -> unit
val r_reply : Rw.reader -> Scada.Reply.t
val w_chunk : Rw.writer -> Recovery.State_transfer.chunk -> unit
val r_chunk : Rw.reader -> Recovery.State_transfer.chunk

val w_cert : Rw.writer -> Member.Cert.t -> unit
val r_cert : Rw.reader -> Member.Cert.t

val w_field_advert : Rw.writer -> Scada.Field_frame.advert -> unit
val r_field_advert : Rw.reader -> Scada.Field_frame.advert

val w_field_report : Rw.writer -> Scada.Field_frame.report -> unit
val r_field_report : Rw.reader -> Scada.Field_frame.report
