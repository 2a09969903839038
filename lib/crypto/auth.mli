(** Signatures and HMACs over message digests.

    Spire authenticates every protocol message: RSA signatures on
    client-visible artifacts and pairwise HMACs on high-rate internal
    traffic. Both are simulated structurally — a tag is a hash binding
    (signer-secret, digest) — together with a CPU cost model so protocol
    layers can charge realistic signing/verification latency. *)

(** A signature produced by one principal over one digest. *)
type signature

(** A pairwise MAC between two principals over one digest. *)
type mac

(** CPU cost (microseconds) charged per operation; modelled on RSA-2048
    sign / verify and SHA-based HMAC on commodity hardware (2018-era,
    matching the paper's testbed class). *)
type cost = {
  sign_us : int;
  verify_us : int;
  mac_us : int;
  mac_verify_us : int;
}

(** Default cost model: sign 800us, verify 60us, mac 2us, mac verify 2us. *)
val default_cost : cost

(** [sign secret digest] signs [digest] with a principal's secret. *)
val sign : Keyring.secret -> Digest.t -> signature

(** [verify keyring ~signer ~digest signature] checks that [signature]
    was produced over [digest] by [signer]'s current secret. *)
val verify :
  Keyring.t -> signer:Keyring.principal -> digest:Digest.t -> signature -> bool

(** [signature_signer s] is the claimed signer carried in the signature. *)
val signature_signer : signature -> Keyring.principal

(** [forge ~claimed_signer ~digest] builds a structurally invalid
    signature — what a Byzantine node can produce without the victim's
    secret. [verify] always rejects it; attack scenarios use this to
    exercise rejection paths. *)
val forge : claimed_signer:Keyring.principal -> digest:Digest.t -> signature

(** [mac secret ~peer digest] authenticates [digest] on the directed pair
    (owner of [secret] -> [peer]). *)
val mac : Keyring.secret -> peer:Keyring.principal -> Digest.t -> mac

(** [verify_mac keyring ~sender ~receiver ~digest mac] checks a pairwise
    MAC from the receiver's point of view. *)
val verify_mac :
  Keyring.t ->
  sender:Keyring.principal ->
  receiver:Keyring.principal ->
  digest:Digest.t ->
  mac ->
  bool
