type config = {
  exploit_development_us : int;
  attempt_interval_us : int;
}

type t = {
  engine : Sim.Engine.t;
  rng : Sim.Rng.t;
  diversity : Recovery.Diversity.t;
  config : config;
  on_compromise : Bft.Types.replica -> unit;
  on_cleanse : Bft.Types.replica -> unit;
  compromised : (Bft.Types.replica, unit) Hashtbl.t;
  recovering : (Bft.Types.replica, unit) Hashtbl.t;
  mutable exploited_variant : Recovery.Diversity.variant option;
  mutable exploits : int;
  mutable total_compromises : int;
  mutable max_simultaneous : int;
  mutable running : bool;
}

let create ~engine ~rng ~diversity ~config ~on_compromise ~on_cleanse =
  {
    engine;
    rng;
    diversity;
    config;
    on_compromise;
    on_cleanse;
    compromised = Hashtbl.create 7;
    recovering = Hashtbl.create 7;
    exploited_variant = None;
    exploits = 0;
    total_compromises = 0;
    max_simultaneous = 0;
    running = false;
  }

let compromised t =
  Hashtbl.fold (fun r () acc -> r :: acc) t.compromised [] |> List.sort compare

let compromised_count t = Hashtbl.length t.compromised
let max_simultaneous t = t.max_simultaneous
let total_compromises t = t.total_compromises
let exploits_developed t = t.exploits

(* Aim at the variant shared by the most not-yet-compromised
   replicas: the worst case. *)
let pick_target t =
  let best = ref 0 and best_count = ref (-1) in
  for v = 0 to Recovery.Diversity.variant_space t.diversity - 1 do
    let count =
      List.length
        (List.filter
           (fun r -> not (Hashtbl.mem t.compromised r))
           (Recovery.Diversity.replicas_running t.diversity v))
    in
    if count > !best_count then begin
      best := v;
      best_count := count
    end
  done;
  !best

let attempt t =
  match t.exploited_variant with
  | None -> ()
  | Some variant ->
    List.iter
      (fun r ->
        if
          (not (Hashtbl.mem t.compromised r))
          && not (Hashtbl.mem t.recovering r)
        then begin
          Hashtbl.replace t.compromised r ();
          t.total_compromises <- t.total_compromises + 1;
          if Hashtbl.length t.compromised > t.max_simultaneous then
            t.max_simultaneous <- Hashtbl.length t.compromised;
          t.on_compromise r
        end)
      (Recovery.Diversity.replicas_running t.diversity variant)

let rec develop_next_exploit t =
  if t.running then begin
    let target = pick_target t in
    ignore
      (Sim.Engine.schedule t.engine ~delay_us:t.config.exploit_development_us
         (fun () ->
           if t.running then begin
             t.exploits <- t.exploits + 1;
             t.exploited_variant <- Some target;
             attempt t;
             (* Keep attempting with this exploit for one development
                period, then move on to the next variant. *)
             let attempts =
               max 1 (t.config.exploit_development_us / t.config.attempt_interval_us)
             in
             let remaining = ref attempts in
             let rec attempt_loop () =
               if t.running && !remaining > 0 then begin
                 decr remaining;
                 ignore
                   (Sim.Engine.schedule t.engine
                      ~delay_us:t.config.attempt_interval_us (fun () ->
                        attempt t;
                        attempt_loop ())
                     : Sim.Engine.timer)
               end
               else develop_next_exploit t
             in
             attempt_loop ()
           end)
        : Sim.Engine.timer)
  end

let start t =
  if not t.running then begin
    t.running <- true;
    develop_next_exploit t
  end

let stop t = t.running <- false

let notify_rejuvenated t r =
  if Hashtbl.mem t.compromised r then begin
    Hashtbl.remove t.compromised r;
    t.on_cleanse r
  end

let set_recovering t r flag =
  if flag then Hashtbl.replace t.recovering r ()
  else Hashtbl.remove t.recovering r
