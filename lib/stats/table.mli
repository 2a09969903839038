(** Plain-text table rendering for experiment output.

    Every experiment in the benchmark harness prints its result as a table
    whose rows mirror the corresponding table or figure series of the
    paper. This module renders aligned ASCII tables on a formatter. *)

type t

(** [create ~title ~columns] is an empty table with the given column
    headers. *)
val create : title:string -> columns:string list -> t

(** [add_row t cells] appends a row.
    @raise Invalid_argument if [cells] length differs from the header. *)
val add_row : t -> string list -> unit

(** [render ppf t] prints the table with a title line, a header and
    aligned columns. *)
val render : Format.formatter -> t -> unit

(** [print t] renders to stdout. *)
val print : t -> unit
