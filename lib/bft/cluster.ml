type ('r, 'm) t = {
  engine : Sim.Engine.t;
  n : int;
  mutable instances : 'r array;
  deliver : 'r -> from:Types.replica -> 'm -> unit;
  overrides : int Tbl.Pair.t;
  base_latency : Types.replica -> Types.replica -> int;
  mutable island : Replica_set.t option;
}

let delay t src dst =
  match Tbl.Pair.find_opt t.overrides (src, dst) with
  | Some d -> d
  | None -> t.base_latency src dst

let crosses_partition t src dst =
  match t.island with
  | None -> false
  | Some island -> Replica_set.mem island src <> Replica_set.mem island dst

let create ~engine ~n ~latency_us ~make ~deliver =
  let t =
    {
      engine;
      n;
      instances = [||];
      deliver;
      overrides = Tbl.Pair.create 17;
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

let size t = t.n

let set_link_delay t ~src ~dst delay_us =
  Tbl.Pair.replace t.overrides (src, dst) delay_us

let partition t ~island = t.island <- Some (Replica_set.of_list island)

let heal t = t.island <- None
