(** The per-device session/link states of one concentrator, as one
    struct-of-arrays store: session [i]'s state, sequence number and
    watermark are slot [i] of flat arrays, its keep-alive draws stream
    [i] of one {!Sim.Rng.Bank}; churn and duplicates are totals.

    The link is a three-state machine stepped once per scan round:

    {v Linking --(handshake)--> Up --(lost keep-alive)--> Down
       Down --(back-off)--> Linking v}

    A fresh session starts in [Linking], so the first round performs
    the capability-advertisement handshake. While [Up], each round's
    keep-alive is lost with probability [loss] (drawn from the
    session's own stream — deterministic), which trips the timeout and
    drops the link; one silent back-off round later the session
    re-handshakes ([`Relink]), at which point the device re-adverts its
    register map and replays its last report frame.

    [churn] counts link-state transitions (down events plus relinks).
    Reports carry a per-session sequence number; {!accept} keeps a
    per-session high-watermark and drops replayed duplicates. *)

type state = Up | Down | Linking
type t

(** [create ~count ~seed ~loss] is [count] [Linking] sessions; session
    [i]'s keep-alive stream is seeded [seed i]. *)
val create : count:int -> seed:(int -> int64) -> loss:float -> t

val state : t -> int -> state

(** [step t i] advances session [i] one scan round: [`Online] — link is
    up, report normally; [`Relink] — handshake round, re-advert and
    replay; [`Offline] — link is down, nothing flows. *)
val step : t -> int -> [ `Online | `Relink | `Offline ]

(** [next_seq t i] allocates session [i]'s next report sequence number. *)
val next_seq : t -> int -> int

(** [accept t i ~seq] is [true] iff [seq] advances session [i]'s
    high-watermark; duplicates are counted and rejected. *)
val accept : t -> int -> seq:int -> bool

(** Totals over all sessions: link-state transitions ([churn]) and
    rejected duplicates. *)
val churn : t -> int

val dups_dropped : t -> int
