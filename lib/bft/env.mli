(** Execution environment handed to a replica protocol instance.

    A protocol state machine never talks to the network or the clock
    directly: it receives an ['msg env] whose closures the deployment
    layer wires to the overlay network and the simulation engine. Tests
    wire them to in-memory harnesses instead. *)

type 'msg t = {
  self : Types.replica;
  replica_count : int;
  send : Types.replica -> 'msg -> unit;
      (** unicast to one peer; sends to self must be delivered too *)
  now_us : unit -> int;
  set_timer : int -> (unit -> unit) -> Sim.Engine.timer;
      (** [set_timer delay_us callback] *)
  telemetry : Telemetry.Sink.t;
      (** span sink for update-lifecycle milestones; {!Telemetry.Sink.null}
          when tracing is off *)
}

(** [others env] lists all replicas except [env.self]. *)
val others : 'msg t -> Types.replica list
