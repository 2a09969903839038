type config = {
  rotation_period_us : int;
  recovery_duration_us : int;
  max_concurrent : int;
}

type t = {
  engine : Sim.Engine.t;
  config : config;
  n : int;
  on_begin : Bft.Types.replica -> unit;
  on_complete : Bft.Types.replica -> unit;
  recovering : (Bft.Types.replica, unit) Hashtbl.t;
  mutable started : int;
  mutable completed : int;
  mutable running : bool;
}

let create ~engine ~config ~n ~on_begin ~on_complete =
  if config.max_concurrent < 1 then
    invalid_arg "Scheduler.create: max_concurrent < 1";
  if config.rotation_period_us <= 0 || config.recovery_duration_us <= 0 then
    invalid_arg "Scheduler.create: non-positive period";
  {
    engine;
    config;
    n;
    on_begin;
    on_complete;
    recovering = Hashtbl.create 7;
    started = 0;
    completed = 0;
    running = false;
  }

let in_progress t =
  Hashtbl.fold (fun r () acc -> r :: acc) t.recovering [] |> List.sort compare

let recoveries_started t = t.started
let recoveries_completed t = t.completed
let is_recovering t r = Hashtbl.mem t.recovering r

let begin_recovery t r =
  if
    (not (Hashtbl.mem t.recovering r))
    && Hashtbl.length t.recovering < t.config.max_concurrent
  then begin
    Hashtbl.replace t.recovering r ();
    t.started <- t.started + 1;
    t.on_begin r;
    ignore
      (Sim.Engine.schedule t.engine ~delay_us:t.config.recovery_duration_us
         (fun () ->
           Hashtbl.remove t.recovering r;
           t.completed <- t.completed + 1;
           t.on_complete r)
        : Sim.Engine.timer);
    true
  end
  else false

let trigger_now t r = begin_recovery t r

let start t =
  if not t.running then begin
    t.running <- true;
    let period = t.config.rotation_period_us in
    let slot = period / t.n in
    for r = 0 to t.n - 1 do
      (* Descending replica order: leader rotation moves views upward,
         so recovering downward avoids rejuvenating the current leader
         on every step (at most one leader recovery per rotation). *)
      let first = (t.n - r) * slot in
      ignore
        (Sim.Engine.schedule t.engine ~delay_us:first (fun () ->
             ignore (begin_recovery t r : bool);
             ignore
               (Sim.Engine.periodic t.engine ~interval_us:period (fun () ->
                    ignore (begin_recovery t r : bool))
                 : Sim.Engine.timer))
          : Sim.Engine.timer)
    done
  end
