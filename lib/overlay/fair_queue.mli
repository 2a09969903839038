(** Two-class priority queue with round-robin fairness across sources.

    This is the queueing discipline of the intrusion-tolerant overlay:
    protocol traffic ([Control]) is always served before bulk traffic,
    and within each class service rotates round-robin over source nodes
    so that a single (possibly compromised) source flooding the link
    cannot starve other sources — it only ever gets its fair share.

    Each source's per-class backlog is additionally capped; pushes beyond
    the cap are dropped and counted, bounding the memory a flooding
    source can consume (the overlay's defence against resource-exhaustion
    DoS). Backlogs are indexed by source id (an overlay node id), so
    memory is linear in the largest source pushed. *)

type priority = Control | Bulk

type 'a t

(** [create ~per_source_cap] is an empty queue; each (source, class)
    backlog holds at most [per_source_cap] items. *)
val create : per_source_cap:int -> 'a t

(** [push t ~source ~priority item] enqueues; returns [false] (and drops)
    if the source's backlog for that class is full.
    @raise Invalid_argument if [source < 0]; nothing is queued or
    counted as dropped. *)
val push : 'a t -> source:int -> priority:priority -> 'a -> bool

(** [take t] dequeues the next item by (priority, round-robin source)
    order, allocating nothing — the per-hop transmit path.
    @raise Invalid_argument if [t] is empty; check {!is_empty} first. *)
val take : 'a t -> 'a

(** [pop t] is {!take} with the item's source and class, or [None] if
    empty. Allocates the option and tuple. *)
val pop : 'a t -> (int * priority * 'a) option

(** [length t] is the number of queued items across classes. *)
val length : 'a t -> int

(** [is_empty t]. *)
val is_empty : 'a t -> bool

(** [dropped t] is the number of pushes rejected by the cap so far. *)
val dropped : 'a t -> int

(** [backlog_of t ~source ~priority] is that backlog's current length. *)
val backlog_of : 'a t -> source:int -> priority:priority -> int
