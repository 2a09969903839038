(** Authenticated wire envelope: the complete frame a Spire component
    hands to the overlay.

    Layout (big-endian):
    {v
    0      2        3        4         6          10
    | magic | version | scheme | sender  | body_len | body ... | auth tag |
    |  "Sp" |   0x01  |  u8    |  u16    |   u32    |          |          |
    v}

    The trailing authenticator's length depends on the scheme, matching
    the crypto layer's cost model classes (see {!Cryptosim.Auth} and
    {!Cryptosim.Threshold}):

    - [Hmac] (32 B, HMAC-SHA256 class): pairwise MACs on high-rate
      replica-to-replica traffic;
    - [Rsa] (256 B, RSA-2048 class): client-signed submissions, where
      replicas must be able to prove provenance to third parties;
    - [Threshold_sig] (128 B, threshold RSA share class): replica
      execution replies, whose authenticator is the signature share the
      client combines.

    The simulated authenticator is an 8-byte digest over
    (scheme, sender, body) followed by zero padding to the scheme's
    real-world size — so byte accounting matches deployment-class
    traffic, and any single-bit corruption of header, body, or tag is
    detected at decode ({!Rw.Auth_mismatch} or a structural error).
    Decoding never raises. *)

type scheme = Hmac | Rsa | Threshold_sig

(** [tag_bytes scheme] is the authenticator length charged on the wire. *)
val tag_bytes : scheme -> int

(** [header_bytes] is the fixed frame header size (10 bytes). *)
val header_bytes : int

(** [overhead scheme] = [header_bytes + tag_bytes scheme] — envelope
    bytes added on top of the encoded message body. *)
val overhead : scheme -> int

(** [scheme_of msg] assigns the authentication class the deployment
    uses for each traffic kind. *)
val scheme_of : Message.t -> scheme

type envelope = { sender : int; scheme : scheme; message : Message.t }

(** [encode ~sender msg] is the full frame: header, body, authenticator.
    The frame's length is the byte cost the overlay's bandwidth model
    charges. *)
val encode : sender:int -> Message.t -> string

(** [decode s] verifies magic, version, scheme, exact length and the
    authenticator, then decodes the body. Total: arbitrary input yields
    [Error]. *)
val decode : string -> (envelope, Rw.error) result

(** [size ~sender msg] = [String.length (encode ~sender msg)], computed
    directly via {!Measure} without encoding (frame length does not
    depend on the sender). *)
val size : sender:int -> Message.t -> int

(** [field_report_size ~events] = [size ~sender (Field_report r)] for
    every report [r] carrying [events] events: the frame charged for a
    field report, computed from its event count alone, so the report
    need not be built. *)
val field_report_size : events:int -> int

(** [field_advert_size] = [size ~sender (Field_advert a)] for every
    advert [a]: its fields are fixed-width, so the frame charged for a
    capability advertisement is a constant. *)
val field_advert_size : int
