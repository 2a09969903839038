(** Bounded-memory duplicate-suppression cache.

    Frame-id dedup must remember ids long enough to suppress duplicates
    still in flight, but a long-running overlay cannot remember every
    id forever. This cache keeps two generations: inserts go to the
    current generation; when it fills, the previous generation is
    dropped and the generations rotate. An id is remembered for at
    least one full generation — orders of magnitude longer than any
    frame's time in flight. *)

type t

(** [create ~generation_size ()] — each generation holds up to
    [generation_size] ids (default 65536). *)
val create : ?generation_size:int -> unit -> t

(** [mem t id] is true if [id] was added within the last two
    generations. *)
val mem : t -> int -> bool

(** [seen t id] is [mem t id]; when [false], it also records [id] — the
    one-lookup check-and-insert of the flood and delivery hot paths. *)
val seen : t -> int -> bool

(** [add t id] records [id] (rotating generations when full). *)
val add : t -> int -> unit

(** [size t] is the number of ids currently remembered. *)
val size : t -> int
