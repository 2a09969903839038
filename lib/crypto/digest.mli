(** Message digests for the simulated cryptography layer.

    A digest is a 64-bit FNV-1a hash. It is obviously not
    collision-resistant against a real adversary; in this simulation the
    adversary is a model, and what matters is that digests are
    deterministic, cheap, and distinct for distinct protocol messages in
    practice. *)

type t

(** {1 Streaming}

    An accumulator hashes a byte sequence fed piece by piece, so a tag
    made of several fields is hashed without building its string. The
    byte-identity contract: feeding the pieces of a string yields the
    same digest as {!of_string} of that string. [add_int n] feeds
    exactly the bytes of [string_of_int n] and [add_int64 v] exactly
    those of [Int64.to_string v], [min_int] and [Int64.min_int]
    included, so a tag rewritten from [Printf]/[^]/[Buffer] onto the
    accumulator keeps its digest bit for bit. An accumulator is
    mutable and single-use: {!finish} reads it, and feeding it
    afterwards continues the same sequence. *)

type acc

(** [start ()] is a fresh accumulator over the empty sequence. *)
val start : unit -> acc

(** [copy a] is a fresh accumulator over the sequence fed to [a] so
    far: a common prefix is hashed once and resumed per tag. *)
val copy : acc -> acc

(** [add_byte a c] feeds one byte. *)
val add_byte : acc -> char -> unit

(** [add_string a s] feeds the bytes of [s]. *)
val add_string : acc -> string -> unit

(** [add_int a n] feeds the bytes of [string_of_int n]. *)
val add_int : acc -> int -> unit

(** [add_int64 a v] feeds the bytes of [Int64.to_string v]. *)
val add_int64 : acc -> int64 -> unit

(** [finish a] is the digest of everything fed so far. *)
val finish : acc -> t

(** [of_string s] hashes the bytes of [s]. *)
val of_string : string -> t

(** [combine a b] hashes the concatenation of two digests (Merkle-style
    chaining, used for checkpoint chains and threshold signatures). *)
val combine : t -> t -> t

(** [equal a b] is constant-time-irrelevant structural equality. *)
val equal : t -> t -> bool

(** [to_hex t] is a 16-character lowercase hex rendering. *)
val to_hex : t -> string

(** [to_int64 t] exposes the raw 64-bit value (for hashing into tables). *)
val to_int64 : t -> int64

(** [of_int64 v] reconstructs a digest from its raw value — the inverse
    of {!to_int64}, used by wire codecs that transport digests as eight
    big-endian bytes. *)
val of_int64 : int64 -> t

val pp : Format.formatter -> t -> unit
