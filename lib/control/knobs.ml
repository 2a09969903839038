type routing = Shortest | Kdisjoint of int | Flooding

type request =
  | Set_routing of routing
  | Set_tat_threshold_us of int
  | Set_tat_violations of int
  | Demote_leader

(* ------------------------------------------------------------------ *)
(* Validation bounds. Deliberately wide — the plane rejects nonsense
   (a zero TAT bound would suspect every leader instantly), not policy
   it dislikes.                                                        *)

let kdisjoint_limit = 8
let min_tat_threshold_us = 1_000
let max_tat_threshold_us = 60_000_000
let tat_violations_limit = 100

let validate = function
  | Set_routing (Kdisjoint k) ->
    if k >= 2 && k <= kdisjoint_limit then Ok ()
    else Error (Printf.sprintf "kdisjoint %d outside [2, %d]" k kdisjoint_limit)
  | Set_routing (Shortest | Flooding) -> Ok ()
  | Set_tat_threshold_us us ->
    if us >= min_tat_threshold_us && us <= max_tat_threshold_us then Ok ()
    else
      Error
        (Printf.sprintf "tat_threshold %dus outside [%dus, %dus]" us
           min_tat_threshold_us max_tat_threshold_us)
  | Set_tat_violations k ->
    if k >= 1 && k <= tat_violations_limit then Ok ()
    else
      Error
        (Printf.sprintf "tat_violations %d outside [1, %d]" k
           tat_violations_limit)
  | Demote_leader -> Ok ()

(* ------------------------------------------------------------------ *)

type entry = {
  at_us : int;
  source : string;
  request : request;
  applied : bool;
  note : string;
}

type t = {
  mutable actuator : (request -> (unit, string) result) option;
  mutable entries : entry list; (* newest first *)
  mutable applied : int;
  mutable rejected : int;
}

let create () =
  { actuator = None; entries = []; applied = 0; rejected = 0 }

let set_actuator t f = t.actuator <- Some f

let request t ~now_us ~source req =
  let outcome =
    match validate req with
    | Error _ as e -> e
    | Ok () -> (
      match t.actuator with
      | None -> Error "no actuator installed"
      | Some f -> f req)
  in
  let applied, note =
    match outcome with
    | Ok () ->
      t.applied <- t.applied + 1;
      (true, "")
    | Error msg ->
      t.rejected <- t.rejected + 1;
      (false, msg)
  in
  t.entries <- { at_us = now_us; source; request = req; applied; note } :: t.entries;
  outcome

let journal t = List.rev t.entries
let total_applied t = t.applied
let total_rejected t = t.rejected

let reconcile t =
  let applied = List.length (List.filter (fun (e : entry) -> e.applied) t.entries) in
  applied = t.applied && List.length t.entries = t.applied + t.rejected
