type 'msg t = {
  self : Types.replica;
  replica_count : int;
  send : Types.replica -> 'msg -> unit;
  now_us : unit -> int;
  set_timer : int -> (unit -> unit) -> Sim.Engine.timer;
  telemetry : Telemetry.Sink.t;
}

let others env =
  List.filter (fun r -> r <> env.self) (List.init env.replica_count Fun.id)
