(** In-memory replica cluster harness.

    Wires [n] protocol instances together over the simulation engine
    with a configurable pairwise delay function — no overlay network in
    between. Used by unit/integration tests and microbenchmarks where
    the subject is the protocol itself; full-system experiments use the
    overlay deployment in the [spire] library instead. *)

type ('r, 'm) t

(** [create ~engine ~n ~latency_us ~make ~deliver] builds [n] replicas.

    [latency_us src dst] is the one-way message delay. [make i env]
    constructs replica [i] with its environment; [deliver r ~from msg]
    feeds an incoming message into the instance.

    Message sends from [i] to [j] (including [i = j]) are scheduled on
    the engine after [latency_us i j] (self-delay clamps to 0). *)
val create :
  engine:Sim.Engine.t ->
  n:int ->
  latency_us:(Types.replica -> Types.replica -> int) ->
  make:(Types.replica -> 'm Env.t -> 'r) ->
  deliver:('r -> from:Types.replica -> 'm -> unit) ->
  ('r, 'm) t

(** [replica t i] is instance [i]. *)
val replica : ('r, 'm) t -> Types.replica -> 'r

(** [size t] is [n]. *)
val size : ('r, 'm) t -> int

(** [set_link_delay t ~src ~dst delay_us] overrides one directed pair's
    delay (e.g. to simulate a degraded path). *)
val set_link_delay :
  ('r, 'm) t -> src:Types.replica -> dst:Types.replica -> int -> unit

(** [partition t ~island] disconnects the replicas in [island] from the
    rest (messages crossing the cut are dropped) until [heal] is
    called. *)
val partition : ('r, 'm) t -> island:Types.replica list -> unit

val heal : ('r, 'm) t -> unit
