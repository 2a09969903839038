(** (t, n) threshold signatures.

    Spire's SCADA master replicas threshold-sign outgoing state updates
    so that proxies and HMIs validate one combined signature instead of
    collecting f+1 matching replies. We simulate the scheme structurally:
    each replica produces a {e share}; any [threshold] distinct valid
    shares over the same digest combine into a group signature that
    verifies against the group's public identity. Fewer than [threshold]
    shares, shares over different digests, or duplicated signers do not
    combine. *)

type group
(** Public parameters of a threshold group. *)

type share
type combined

(** [create_group ~seed ~members ~threshold] creates a group over the
    given member principals requiring [threshold] shares.
    @raise Invalid_argument if [threshold] is not in [1 .. #members]. *)
val create_group :
  seed:int64 -> members:Keyring.principal list -> threshold:int -> group

val threshold : group -> int
val members : group -> Keyring.principal list

(** [sign_share group ~member digest] produces [member]'s share.
    @raise Invalid_argument if [member] is not in the group. *)
val sign_share : group -> member:Keyring.principal -> Digest.t -> share

(** [corrupt_share share] flips the share's tag — what a Byzantine
    replica contributes. Verification rejects it. *)
val corrupt_share : share -> share

(** [verify_share group ~digest share] checks a single share. *)
val verify_share : group -> digest:Digest.t -> share -> bool

(** [share_repr share] is the share's transportable representation:
    (claimed member, signed digest, share tag). Wire codecs serialise
    shares through this triple. *)
val share_repr : share -> Keyring.principal * Digest.t * Digest.t

(** [share_of_repr ~member ~digest ~tag] rebuilds a share from its wire
    representation. Decoding does not confer validity: a share forged or
    damaged in transit still fails {!verify_share}. *)
val share_of_repr :
  member:Keyring.principal -> digest:Digest.t -> tag:Digest.t -> share

(** [combine group ~digest shares] combines [shares] into a group
    signature. Returns [None] when fewer than [threshold group] valid
    shares from distinct members over [digest] are present. *)
val combine : group -> digest:Digest.t -> share list -> combined option

(** [verify group ~digest combined] validates a combined signature. *)
val verify : group -> digest:Digest.t -> combined -> bool

(** [combined_repr c] is (signed digest, combined tag). *)
val combined_repr : combined -> Digest.t * Digest.t

(** CPU cost model: share sign / share verify / combine / combined
    verify, in microseconds. *)
type cost = { share_us : int; share_verify_us : int; combine_us : int; verify_us : int }

val default_cost : cost
