(* Fixed per-device profile, the shape cc-mek-scada style RTUs advertise
   (status bits, breaker coils, sensor registers, setpoints): every
   table of the store has a fixed width per device. *)
let discrete_inputs_count = 8
let coils_count = 4
let input_registers_count = 6
let holding_registers_count = 4

(* Per input register, [params] u16 cells hold its point's parameters. *)
let nominal = 0 and step = 1 and deadband = 2 and lo = 3 and hi = 4
let params = 5

(* Struct of arrays: device [d]'s cells in a table of width [w] are
   [d*w .. d*w + w - 1], each a u16 (bits are 0 or 1; registers and
   point parameters are u16). *)
type t = {
  concentrator : int;
  first_device : int;
  rng : Sim.Rng.Bank.t;  (* stream [d]: device [d]'s process noise *)
  discrete_inputs : Bytes.t;
  coils : Bytes.t;
  input_registers : Bytes.t;
  holding_registers : Bytes.t;
  last_reported : Bytes.t;  (* last value reported per input register *)
  analog : Bytes.t;  (* [params] cells per input register *)
  map_digests : Bytes.t;  (* 8 bytes per device *)
  (* The last tick's events, oldest first, as [slot lsl 16 lor value]:
     slot [a] is input register [a], slot [6 + a] discrete input [a]. *)
  events : int array;
  mutable event_count : int;
}

let get16 b k = Bytes.get_uint16_ne b (2 * k)
let set16 b k v = Bytes.set_uint16_ne b (2 * k) v
let param t k i = get16 t.analog ((params * k) + i)

(* Every device shares its 8 discrete-input, 4 coil and 4 holding-register
   descriptors; only the 6 analog input registers differ. So the map
   digest chains the shared prefix once, and each device digests only
   its analog descriptors before the shared holding-register digests. *)
let shared_prefix =
  Point.map_digest
    (Array.append
       (Array.init discrete_inputs_count (fun address ->
            Point.discrete ~table:Point.Discrete_input ~address))
       (Array.init coils_count (fun address ->
            Point.discrete ~table:Point.Coil ~address)))

let holding_digests =
  Array.init holding_registers_count (fun address ->
      Point.digest
        (Point.analog ~table:Point.Holding_register ~address ~nominal:0x800
           ~spread:0x7FF))

let create ~concentrator ~first_device ~count ~seed =
  let u16_table width = Bytes.make (2 * count * width) '\000' in
  let t =
    {
      concentrator;
      first_device;
      rng = Sim.Rng.Bank.create count seed;
      discrete_inputs = u16_table discrete_inputs_count;
      coils = u16_table coils_count;
      input_registers = u16_table input_registers_count;
      holding_registers = u16_table holding_registers_count;
      last_reported = u16_table input_registers_count;
      analog = u16_table (params * input_registers_count);
      map_digests = Bytes.create (8 * count);
      events = Array.make (input_registers_count + discrete_inputs_count) 0;
      event_count = 0;
    }
  in
  for d = 0 to count - 1 do
    let analog_digests =
      Array.init input_registers_count (fun address ->
          let nominal = 2_000 + Sim.Rng.Bank.int t.rng d 40_000 in
          let spread = 400 + Sim.Rng.Bank.int t.rng d 4_000 in
          let p = Point.analog ~table:Point.Input_register ~address ~nominal ~spread in
          let k = (d * input_registers_count) + address in
          set16 t.input_registers k nominal;
          set16 t.last_reported k nominal;
          List.iteri
            (fun i v -> set16 t.analog ((params * k) + i) v)
            [ nominal; p.Point.step; p.Point.deadband; Point.lo p; Point.hi p ];
          Point.digest p)
    in
    let digest =
      Array.fold_left Cryptosim.Digest.combine shared_prefix
        (Array.append analog_digests holding_digests)
    in
    Bytes.set_int64_ne t.map_digests (8 * d) (Cryptosim.Digest.to_int64 digest);
    for a = 0 to holding_registers_count - 1 do
      set16 t.holding_registers ((d * holding_registers_count) + a) 0x800
    done
  done;
  t

let count t = Sim.Rng.Bank.length t.rng
let id t d = t.first_device + d

let map_digest t d =
  Cryptosim.Digest.of_int64 (Bytes.get_int64_ne t.map_digests (8 * d))

let advert t d =
  {
    Scada.Field_frame.concentrator = t.concentrator;
    device = id t d;
    discrete_inputs = discrete_inputs_count;
    coils = coils_count;
    input_registers = input_registers_count;
    holding_registers = holding_registers_count;
    map_digest = map_digest t d;
  }

(* Probability a status bit flips on one tick. *)
let flip_probability = 0.01

let push t slot value =
  t.events.(t.event_count) <- (slot lsl 16) lor value;
  t.event_count <- t.event_count + 1

let tick t d =
  t.event_count <- 0;
  (* Analog process: bounded random walk with mean reversion, reported
     by exception when the drift since the last report crosses the
     point's deadband. *)
  for address = 0 to input_registers_count - 1 do
    let k = (d * input_registers_count) + address in
    let step = param t k step in
    let v = get16 t.input_registers k in
    let drift = Sim.Rng.Bank.int t.rng d ((2 * step) + 1) - step in
    let walked = v + drift + ((param t k nominal - v) / 16) in
    let clamped = Int.max (param t k lo) (Int.min (param t k hi) walked) in
    set16 t.input_registers k clamped;
    if abs (clamped - get16 t.last_reported k) >= param t k deadband then begin
      set16 t.last_reported k clamped;
      push t address clamped
    end
  done;
  (* Status bits: rare spontaneous flips, always exception-reported. *)
  for address = 0 to discrete_inputs_count - 1 do
    if Sim.Rng.Bank.bernoulli t.rng d flip_probability then begin
      let k = (d * discrete_inputs_count) + address in
      let bit = 1 - get16 t.discrete_inputs k in
      set16 t.discrete_inputs k bit;
      push t (input_registers_count + address) bit
    end
  done;
  t.event_count

let events t =
  List.init t.event_count (fun k ->
      let slot = t.events.(k) lsr 16 and value = t.events.(k) land 0xFFFF in
      let table, address =
        if slot < input_registers_count then (Point.Input_register, slot)
        else (Point.Discrete_input, slot - input_registers_count)
      in
      { Scada.Field_frame.table; address; value })

(* [Field_frame.report_checksum] of device [d]'s report of the last
   tick's events, folded straight from the event buffer. *)
let report_checksum t d =
  let acc = ref (id t d land 0xFFFF) in
  for k = 0 to t.event_count - 1 do
    let slot = t.events.(k) lsr 16 and value = t.events.(k) land 0xFFFF in
    acc :=
      if slot < input_registers_count then
        Scada.Field_frame.fold_event !acc Point.Input_register ~address:slot ~value
      else
        Scada.Field_frame.fold_event !acc Point.Discrete_input
          ~address:(slot - input_registers_count) ~value
  done;
  !acc

(* The device side of a Modbus exchange against the register tables.
   Out-of-range accesses answer with exception code 2 (illegal data
   address), as a real slave would. *)
let in_range width start count = start >= 0 && count >= 0 && start + count <= width

let serve t d (req : Scada.Modbus.request) : Scada.Modbus.response =
  let module M = Scada.Modbus in
  let read tbl width start count =
    List.init count (fun i -> get16 tbl ((d * width) + start + i))
  in
  let bits tbl width start count = List.map (( = ) 1) (read tbl width start count) in
  let write tbl width start values =
    List.iteri (fun i v -> set16 tbl ((d * width) + start + i) (v land 0xFFFF)) values
  in
  match req with
  | M.Read_coils { start; count } when in_range coils_count start count ->
    M.Coils (bits t.coils coils_count start count)
  | M.Read_discrete_inputs { start; count }
    when in_range discrete_inputs_count start count ->
    M.Discrete_inputs (bits t.discrete_inputs discrete_inputs_count start count)
  | M.Read_holding_registers { start; count }
    when in_range holding_registers_count start count ->
    M.Holding_registers (read t.holding_registers holding_registers_count start count)
  | M.Read_input_registers { start; count }
    when in_range input_registers_count start count ->
    M.Input_registers (read t.input_registers input_registers_count start count)
  | M.Write_single_coil { address; value } when in_range coils_count address 1 ->
    write t.coils coils_count address [ Bool.to_int value ];
    M.Coil_written { address; value }
  | M.Write_single_register { address; value }
    when in_range holding_registers_count address 1 ->
    write t.holding_registers holding_registers_count address [ value ];
    M.Register_written { address; value }
  | M.Write_multiple_coils { start; values }
    when in_range coils_count start (List.length values) ->
    write t.coils coils_count start (List.map Bool.to_int values);
    M.Coils_written { start; count = List.length values }
  | M.Write_multiple_registers { start; values }
    when in_range holding_registers_count start (List.length values) ->
    write t.holding_registers holding_registers_count start values;
    M.Registers_written { start; count = List.length values }
  | _ ->
    M.Exception_response { function_code = M.function_code req; exception_code = 2 }

let holding_register t d ~address =
  if in_range holding_registers_count address 1 then
    Some (get16 t.holding_registers ((d * holding_registers_count) + address))
  else None
