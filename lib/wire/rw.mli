(** Byte-level reader/writer primitives shared by every codec.

    Writers append big-endian fields to a {!Buffer.t}; readers consume a
    [string] with strict bounds checking. Decoding NEVER lets an
    exception escape: every failure is funnelled into {!error} by
    {!run}, which also rejects trailing garbage — a codec must consume
    its input exactly. *)

type error =
  | Truncated of { context : string; wanted : int; available : int }
      (** a field needed [wanted] more bytes; only [available] remain *)
  | Bad_magic
  | Unsupported_version of int
  | Unknown_tag of { context : string; tag : int }
  | Trailing_garbage of { extra : int }
  | Auth_mismatch  (** envelope authenticator fails verification *)
  | Invalid_value of { context : string; detail : string }

val error_to_string : error -> string

(** {1 Writing} *)

type writer = Buffer.t

val w_u8 : writer -> int -> unit
val w_u16 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_bool : writer -> bool -> unit
val w_digest : writer -> Cryptosim.Digest.t -> unit

(** [w_bytes w s] appends a u32 length prefix then the raw bytes. *)
val w_bytes : writer -> string -> unit

(** [w_list w f l] appends a u16 count then each element via [f].
    @raise Invalid_argument if the list exceeds 65535 elements. *)
val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit

(** {1 Reading} *)

type reader

(** Raised internally by field readers; callers outside this module see
    it only as the [Error] result of {!run}. *)
exception Fail of error

val r_u8 : string -> reader -> int
val r_u16 : string -> reader -> int
val r_u32 : string -> reader -> int
val r_i64 : string -> reader -> int64
val r_bool : string -> reader -> bool
val r_digest : string -> reader -> Cryptosim.Digest.t
val r_bytes : string -> reader -> string
val r_list : string -> reader -> (reader -> 'a) -> 'a list

(** [remaining r] is the number of unread bytes. *)
val remaining : reader -> int

(** [take r n] consumes [n] raw bytes. *)
val take : string -> reader -> int -> string

(** [run s f] decodes [s] with [f]. Catches every exception ([Fail] maps
    to its error; anything else becomes [Invalid_value]) and rejects
    input not consumed to the last byte. *)
val run : string -> (reader -> 'a) -> ('a, error) result
