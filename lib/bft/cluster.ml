type ('r, 'm) t = {
  engine : Sim.Engine.t;
  n : int;
  mutable instances : 'r array;
  deliver : 'r -> from:Types.replica -> 'm -> unit;
  overrides : (Types.replica * Types.replica, int) Hashtbl.t;
  base_latency : Types.replica -> Types.replica -> int;
  mutable island : (Types.replica, unit) Hashtbl.t option;
}

let delay t src dst =
  match Hashtbl.find_opt t.overrides (src, dst) with
  | Some d -> d
  | None -> t.base_latency src dst

let crosses_partition t src dst =
  match t.island with
  | None -> false
  | Some island -> Hashtbl.mem island src <> Hashtbl.mem island dst

let create ~engine ~n ~latency_us ~make ~deliver =
  let t =
    {
      engine;
      n;
      instances = [||];
      deliver;
      overrides = Hashtbl.create 17;
      base_latency = latency_us;
      island = None;
    }
  in
  let env_of i =
    {
      Env.self = i;
      replica_count = n;
      send =
        (fun dst msg ->
          if not (crosses_partition t i dst) then begin
            let d = if dst = i then 0 else max 0 (delay t i dst) in
            ignore
              (Sim.Engine.schedule engine ~delay_us:d (fun () ->
                   if not (crosses_partition t i dst) then
                     t.deliver t.instances.(dst) ~from:i msg)
                : Sim.Engine.timer)
          end);
      now_us = (fun () -> Sim.Engine.now engine);
      set_timer = (fun delay_us f -> Sim.Engine.schedule engine ~delay_us f);
      telemetry = Telemetry.Sink.null;
    }
  in
  t.instances <- Array.init n (fun i -> make i (env_of i));
  t

let replica t i =
  if i < 0 || i >= t.n then invalid_arg "Cluster.replica: out of range";
  t.instances.(i)

let replicas t = Array.copy t.instances
let size t = t.n

let set_link_delay t ~src ~dst delay_us =
  Hashtbl.replace t.overrides (src, dst) delay_us

let partition t ~island =
  let h = Hashtbl.create 7 in
  List.iter (fun r -> Hashtbl.replace h r ()) island;
  t.island <- Some h

let heal t = t.island <- None
