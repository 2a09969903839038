(** Hash tables over int keys with monomorphic hash and equality.

    [Stdlib.Hashtbl] hashes and compares keys through the polymorphic C
    primitives ([caml_hash], [compare_val]). These instances hash an int
    by its value and a pair by mixing its two halves, and test equality
    with the int [=], all inlined. Their iteration order differs from
    [Hashtbl]'s: callers whose folds reach a message or a log sort the
    result. *)

(** Tables keyed by an int (sequence number, view, client). *)
module Int : Hashtbl.S with type key = int

(** Tables keyed by an int pair ((origin, po_seq), (client, seq),
    (src, dst)). *)
module Pair : Hashtbl.S with type key = int * int
