type routing = Shortest | Kdisjoint of int | Flooding

type request =
  | Set_max_batch of int
  | Set_batch_delay_us of int
  | Set_routing of routing
  | Set_recovery_period_us of int
  | Set_tat_threshold_us of int
  | Set_tat_violations of int
  | Demote_leader

type kind =
  | Max_batch
  | Batch_delay
  | Routing
  | Recovery_period
  | Tat_threshold
  | Tat_violations
  | Demotion

let kind_index = function
  | Max_batch -> 0
  | Batch_delay -> 1
  | Routing -> 2
  | Recovery_period -> 3
  | Tat_threshold -> 4
  | Tat_violations -> 5
  | Demotion -> 6

let kind_count = 7

let kind_of_request = function
  | Set_max_batch _ -> Max_batch
  | Set_batch_delay_us _ -> Batch_delay
  | Set_routing _ -> Routing
  | Set_recovery_period_us _ -> Recovery_period
  | Set_tat_threshold_us _ -> Tat_threshold
  | Set_tat_violations _ -> Tat_violations
  | Demote_leader -> Demotion

let kind_name = function
  | Max_batch -> "max_batch"
  | Batch_delay -> "batch_delay"
  | Routing -> "routing"
  | Recovery_period -> "recovery_period"
  | Tat_threshold -> "tat_threshold"
  | Tat_violations -> "tat_violations"
  | Demotion -> "demotion"

(* ------------------------------------------------------------------ *)
(* Validation bounds. Deliberately wide — the plane rejects nonsense
   (a zero TAT bound would suspect every leader instantly; an unbounded
   batch would never flush), not policy it dislikes.                   *)

let max_batch_limit = 1024
let batch_delay_limit_us = 1_000_000
let kdisjoint_limit = 8
let min_recovery_period_us = 100_000
let min_tat_threshold_us = 1_000
let max_tat_threshold_us = 60_000_000
let tat_violations_limit = 100

let validate = function
  | Set_max_batch m ->
    if m >= 1 && m <= max_batch_limit then Ok ()
    else Error (Printf.sprintf "max_batch %d outside [1, %d]" m max_batch_limit)
  | Set_batch_delay_us d ->
    if d >= 0 && d <= batch_delay_limit_us then Ok ()
    else
      Error
        (Printf.sprintf "batch_delay %dus outside [0, %dus]" d
           batch_delay_limit_us)
  | Set_routing (Kdisjoint k) ->
    if k >= 2 && k <= kdisjoint_limit then Ok ()
    else Error (Printf.sprintf "kdisjoint %d outside [2, %d]" k kdisjoint_limit)
  | Set_routing (Shortest | Flooding) -> Ok ()
  | Set_recovery_period_us p ->
    if p >= min_recovery_period_us then Ok ()
    else
      Error
        (Printf.sprintf "recovery_period %dus below %dus" p
           min_recovery_period_us)
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
  mutable entry_count : int;
  applied : int array; (* per kind_index *)
  rejected : int array;
}

let create () =
  {
    actuator = None;
    entries = [];
    entry_count = 0;
    applied = Array.make kind_count 0;
    rejected = Array.make kind_count 0;
  }

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
  let i = kind_index (kind_of_request req) in
  let applied, note =
    match outcome with
    | Ok () ->
      t.applied.(i) <- t.applied.(i) + 1;
      (true, "")
    | Error msg ->
      t.rejected.(i) <- t.rejected.(i) + 1;
      (false, msg)
  in
  t.entries <- { at_us = now_us; source; request = req; applied; note } :: t.entries;
  t.entry_count <- t.entry_count + 1;
  outcome

let journal t = List.rev t.entries
let journal_length t = t.entry_count
let applied_count t k = t.applied.(kind_index k)
let rejected_count t k = t.rejected.(kind_index k)
let total_applied t = Array.fold_left ( + ) 0 t.applied
let total_rejected t = Array.fold_left ( + ) 0 t.rejected

let reconcile t =
  let ja = Array.make kind_count 0 and jr = Array.make kind_count 0 in
  List.iter
    (fun e ->
      let i = kind_index (kind_of_request e.request) in
      if e.applied then ja.(i) <- ja.(i) + 1 else jr.(i) <- jr.(i) + 1)
    t.entries;
  ja = t.applied && jr = t.rejected
  && t.entry_count = total_applied t + total_rejected t
