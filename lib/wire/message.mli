(** The system message union — everything any Spire component ever puts
    on the overlay.

    [Core.System]'s payload type {e is} this type: defining it here lets
    the wire layer encode/decode complete frames without a dependency
    cycle, and leaves the protocol state machines sans-IO (they emit
    values; the deployment serialises them at the network boundary). *)

type t =
  | Prime_msg of Bft.Types.replica * Prime.Msg.t
      (** protocol message from a Prime replica *)
  | Pbft_msg of Bft.Types.replica * Pbft.Msg.t
      (** protocol message from a PBFT replica *)
  | Client_update of Bft.Update.t  (** client (proxy/HMI) submission *)
  | Replica_reply of Scada.Reply.t  (** threshold-signed execution reply *)
  | Transfer_chunk of Recovery.State_transfer.chunk
      (** state-transfer snapshot fragment *)
  | Client_batch of Bft.Update.t list
      (** client submission batch: one signed frame amortized over
          several accumulated updates ([Bft.Batch]) *)
  | Reply_batch of Scada.Reply.t list
      (** several threshold-signed execution replies to the same client
          in one envelope *)
  | Epoch_frame of int * t
      (** membership-epoch envelope around a protocol frame: receivers
          reject stale-epoch traffic before it reaches protocol state.
          Epoch-0 frames travel bare (genesis trajectory unchanged);
          accounted under the inner message's kind. *)
  | Cert_frame of Member.Cert.t
      (** membership certificate announcement broadcast at an epoch
          cutover *)
  | Field_advert of Scada.Field_frame.advert
      (** register-map capability advertisement a fleet device sends
          when its concentrator session links up (and on relink) *)
  | Field_report of Scada.Field_frame.report
      (** report-by-exception event batch on the device-to-concentrator
          field link *)

(** [kind m] is a stable per-variant label (drilling into the protocol
    message variant, e.g. ["prime/preprepare"]) used for per-class
    traffic accounting. *)
val kind : t -> string

(** Kinds also form a dense index [0 .. kind_count - 1] so per-kind
    accounting can use preallocated counter arrays on the send fast
    path instead of hashing label strings. *)
val kind_count : int

(** [kind_index m] is the dense index of [m]'s kind;
    [kind_name (kind_index m) = kind m]. *)
val kind_index : t -> int

(** [kind_name i] is the label of kind index [i].
    @raise Invalid_argument if [i] is out of range. *)
val kind_name : int -> string

(** [equal a b] — structural value equality (used by the
    decode-on-delivery debug check). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** Bare body codec (no envelope): tag byte + message body. *)
val encode : t -> string

val decode : string -> (t, Rw.error) result

val r : Rw.reader -> t
