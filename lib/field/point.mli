(** Typed point descriptors for the register-mapped device model.

    A point descriptor says which register table a point lives in, at
    which address, and — for analog points — the physical envelope its
    value walks inside ([nominal ± spread]), the per-tick walk [step],
    and the report-by-exception [deadband]: a device only reports an
    analog point when it has drifted at least [deadband] counts from
    the last reported value. *)

type table = Scada.Field_frame.table =
  | Discrete_input
  | Coil
  | Input_register
  | Holding_register

type t = {
  table : table;
  address : int;
  nominal : int;
  spread : int;
  step : int;
  deadband : int;
}

(** [lo p] / [hi p] are the clamped physical envelope bounds (register
    values are u16, so the envelope is also clipped to [0, 0xFFFF]). *)
val lo : t -> int

val hi : t -> int

(** The formulas behind {!analog}, {!lo} and {!hi}, for a store that
    keeps an analog point's parameters instead of its record:
    [lo_of]/[hi_of] are the envelope bounds of [nominal ± spread]
    clipped to u16, [step_of]/[deadband_of] are [spread/8] and
    [spread/4] floored at 1 (for a [spread >= 1]). *)
val lo_of : nominal:int -> spread:int -> int

val hi_of : nominal:int -> spread:int -> int
val step_of : spread:int -> int
val deadband_of : spread:int -> int

(** [discrete ~table ~address] is a single-bit point descriptor. *)
val discrete : table:table -> address:int -> t

(** [analog ~table ~address ~nominal ~spread] derives step and deadband
    from the spread ([spread/8] and [spread/4], floored at 1). *)
val analog : table:table -> address:int -> nominal:int -> spread:int -> t

(** [map_digest points] chains every descriptor into a digest — the
    register-map identity a device advertises in its capability
    handshake: a fold of [Cryptosim.Digest.combine] over each point's
    {!digest}, so a map prefix shared by many devices is digested once. *)
val map_digest : t array -> Cryptosim.Digest.t

(** [digest p] is [Cryptosim.Digest.of_string] of the descriptor's
    rendering, ["%s@%d:n%d,s%d,st%d,db%d"] (table name, address,
    nominal, spread, step, deadband), computed without building it. *)
val digest : t -> Cryptosim.Digest.t

val pp : Format.formatter -> t -> unit
