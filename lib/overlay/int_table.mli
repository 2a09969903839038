(** Hashtable specialised to [int] keys: a multiplicative hash and
    [Int.equal] instead of the polymorphic hash and compare. Used for
    the fair queue's per-source tables, which sit on the per-copy hop
    path. *)

include Hashtbl.S with type key = int
