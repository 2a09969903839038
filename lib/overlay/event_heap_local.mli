(** Minimal int-keyed min-heap used by {!Routing}'s Dijkstra.

    Kept local to the overlay library so routing does not depend on the
    simulation engine's event heap (which orders by insertion sequence,
    a property Dijkstra does not want). *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> key:int -> 'a -> unit
val pop : 'a t -> (int * 'a) option
