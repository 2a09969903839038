(* Persistent maps, so [clone] shares them in O(1); int keys compare
   with [Int.compare], never the polymorphic compare. *)
module Int_map = Map.Make (Int)

module Pair_map = Map.Make (struct
  type t = int * int

  let compare ((a, b) : t) ((c, d) : t) =
    match Int.compare a c with 0 -> Int.compare b d | n -> n
end)

type t = {
  mutable statuses : Rtu.status Int_map.t;  (* rtu -> last status *)
  mutable intents : Rtu.breaker_state Pair_map.t;  (* (rtu, breaker) *)
  mutable applied : int;
  mutable field_events : int;  (* cumulative fleet exception events confirmed *)
  mutable field_writes : int;  (* cumulative fleet register writes confirmed *)
  mutable digest : Cryptosim.Digest.t;
}

type effect =
  | No_effect
  | Device_command of { rtu : int; command : Dnp3.app }
  | Read_result of { hmi_id : int; state : Cryptosim.Digest.t }

let create () =
  {
    statuses = Int_map.empty;
    intents = Pair_map.empty;
    applied = 0;
    field_events = 0;
    field_writes = 0;
    digest = Cryptosim.Digest.of_string "scada-master-genesis";
  }

let applied_count t = t.applied
let state_digest t = t.digest

let advance_digest t op =
  t.applied <- t.applied + 1;
  t.digest <-
    Cryptosim.Digest.combine t.digest (Cryptosim.Digest.of_string (Op.encode op))

let apply t op =
  advance_digest t op;
  match op with
  | Op.Status_report s ->
    let rtu = s.Rtu.rtu_id in
    let keep_newer =
      match Int_map.find_opt rtu t.statuses with
      | Some prev -> prev.Rtu.seq < s.Rtu.seq
      | None -> true
    in
    if keep_newer then t.statuses <- Int_map.add rtu s t.statuses;
    No_effect
  | Op.Breaker_command { rtu; breaker; desired } ->
    t.intents <- Pair_map.add (rtu, breaker) desired t.intents;
    let action =
      match desired with Rtu.Open -> Dnp3.Trip | Rtu.Closed -> Dnp3.Close
    in
    Device_command { rtu; command = Dnp3.Operate { point = breaker; action } }
  | Op.Tap_command { rtu; position } ->
    (* Encoded as an operate on a reserved point id carrying the tap. *)
    Device_command
      {
        rtu;
        command =
          Dnp3.Operate
            {
              point = 0x100 + (position + 16);
              action = (if position >= 0 then Dnp3.Close else Dnp3.Trip);
            };
      }
  | Op.Hmi_read { hmi_id } -> Read_result { hmi_id; state = t.digest }
  | Op.Reconfig _ ->
    (* Membership reconfiguration has no field-device effect; the
       deployment layer reacts to its execution.  It still advances the
       state digest (above) so every replica's application state chains
       over the command identically. *)
    No_effect
  | Op.Field_report { events; _ } ->
    (* The aggregate commits to the underlying device reports via its
       checksum, which the digest chain (above) already covers; the
       master only has to tally the confirmed events. *)
    t.field_events <- t.field_events + events;
    No_effect
  | Op.Field_write _ ->
    (* Actuation happens at the concentrator once it sees the
       confirmation; replicas just account the ordered write. *)
    t.field_writes <- t.field_writes + 1;
    No_effect

let last_status t ~rtu = Int_map.find_opt rtu t.statuses
let breaker_intent t ~rtu ~breaker = Pair_map.find_opt (rtu, breaker) t.intents
let known_rtus t = List.map fst (Int_map.bindings t.statuses)

let stale_rtus t ~now_seq ~window =
  Int_map.fold
    (fun rtu s acc -> if now_seq - s.Rtu.seq > window then rtu :: acc else acc)
    t.statuses []
  |> List.rev

let snapshot_digest = state_digest

let clone t =
  {
    statuses = t.statuses;
    intents = t.intents;
    applied = t.applied;
    field_events = t.field_events;
    field_writes = t.field_writes;
    digest = t.digest;
  }
