type t = {
  engine : Sim.Engine.t;
  mutable next_handle : int;
  timers : (int, Sim.Engine.timer) Hashtbl.t;
}

let create ~engine = { engine; next_handle = 0; timers = Hashtbl.create 7 }

let start_flood t ~net ~src ~dst ~frame_bytes ~frames_per_burst
    ~burst_interval_us ~priority =
  if frames_per_burst <= 0 || burst_interval_us <= 0 then
    invalid_arg "Dos.flood: non-positive burst parameters";
  let handle = t.next_handle in
  t.next_handle <- handle + 1;
  let rand = Sim.Rng.int (Sim.Engine.rng t.engine) in
  let timer =
    Sim.Engine.periodic t.engine ~interval_us:burst_interval_us (fun () ->
        for _ = 1 to frames_per_burst do
          (* Each flood frame is a fresh string of genuinely undecodable
             bytes: what the victim daemon receives fails
             [Wire.Envelope.decode], so dropping it is the modelled
             behaviour, not an assumption. *)
          let bytes = Wire.Junk.undecodable ~rand ~size_bytes:frame_bytes in
          Overlay.Net.inject_junk_bytes net ~src ~dst ~bytes ~priority
        done)
  in
  Hashtbl.replace t.timers handle timer;
  handle

let flood t ~net ~src ~dst ~frame_bytes ~frames_per_burst ~burst_interval_us =
  start_flood t ~net ~src ~dst ~frame_bytes ~frames_per_burst ~burst_interval_us
    ~priority:Overlay.Fair_queue.Bulk

let flood_control_class t ~net ~src ~dst ~frame_bytes ~frames_per_burst
    ~burst_interval_us =
  start_flood t ~net ~src ~dst ~frame_bytes ~frames_per_burst ~burst_interval_us
    ~priority:Overlay.Fair_queue.Control

let stop t handle =
  match Hashtbl.find_opt t.timers handle with
  | Some timer ->
    Sim.Engine.cancel timer;
    Hashtbl.remove t.timers handle
  | None -> ()

let active t = Hashtbl.length t.timers
