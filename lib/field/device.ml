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
  first_device : int;
  rng : Sim.Rng.Bank.t;  (* stream [d]: device [d]'s process noise *)
  discrete_inputs : Bytes.t;
  coils : Bytes.t;
  input_registers : Bytes.t;
  holding_registers : Bytes.t;
  last_reported : Bytes.t;  (* last value reported per input register *)
  analog : Bytes.t;  (* [params] cells per input register *)
  (* The last tick's events, oldest first, as [slot lsl 16 lor value]:
     slot [a] is input register [a], slot [6 + a] discrete input [a]. *)
  events : int array;
  mutable event_count : int;
  (* [tick]'s scratch: each input register's walk-step bound, which
     [Sim.Rng.Bank.draws] replaces by the step drawn. *)
  walk : int array;
}

let get16 b k = Bytes.get_uint16_ne b (2 * k)
let set16 b k v = Bytes.set_uint16_ne b (2 * k) v

(* Unchecked: for [tick], whose one range check on the device bounds
   every cell it touches. *)
external unsafe_get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let get16u b k = unsafe_get16 b (2 * k)
let set16u b k v = unsafe_set16 b (2 * k) v
let param t k i = get16u t.analog ((params * k) + i)

let create ~first_device ~count ~seed =
  let u16_table width = Bytes.make (2 * count * width) '\000' in
  let t =
    {
      first_device;
      rng = Sim.Rng.Bank.create count seed;
      discrete_inputs = u16_table discrete_inputs_count;
      coils = u16_table coils_count;
      input_registers = u16_table input_registers_count;
      holding_registers = u16_table holding_registers_count;
      last_reported = u16_table input_registers_count;
      analog = u16_table (params * input_registers_count);
      events = Array.make (input_registers_count + discrete_inputs_count) 0;
      event_count = 0;
      walk = Array.make input_registers_count 0;
    }
  in
  (* Each input register draws its nominal, then its spread, and stores
     the parameters {!Point.analog} derives from them; no point record
     is built. *)
  for d = 0 to count - 1 do
    for address = 0 to input_registers_count - 1 do
      let nom = 2_000 + Sim.Rng.Bank.int t.rng d 40_000 in
      let spread = 400 + Sim.Rng.Bank.int t.rng d 4_000 in
      let k = (d * input_registers_count) + address in
      let cells = params * k in
      set16 t.input_registers k nom;
      set16 t.last_reported k nom;
      set16 t.analog (cells + nominal) nom;
      set16 t.analog (cells + step) (Point.step_of ~spread);
      set16 t.analog (cells + deadband) (Point.deadband_of ~spread);
      set16 t.analog (cells + lo) (Point.lo_of ~nominal:nom ~spread);
      set16 t.analog (cells + hi) (Point.hi_of ~nominal:nom ~spread)
    done;
    for a = 0 to holding_registers_count - 1 do
      set16 t.holding_registers ((d * holding_registers_count) + a) 0x800
    done
  done;
  t

let count t = Sim.Rng.Bank.length t.rng
let id t d = t.first_device + d

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

(* A drawn spread is at most 4,399 over a nominal of at most 41,999, so
   [hi] is never clipped and [hi - nominal] is the spread ([lo] can clip
   and is not used). *)
let input_point t d ~address =
  if d < 0 || d >= count t || address < 0 || address >= input_registers_count then
    invalid_arg "Device.input_point: no such point";
  let k = (d * input_registers_count) + address in
  let nom = param t k nominal in
  Point.analog ~table:Point.Input_register ~address ~nominal:nom
    ~spread:(param t k hi - nom)

let map_digest t d =
  let acc = ref shared_prefix in
  for address = 0 to input_registers_count - 1 do
    acc := Cryptosim.Digest.combine !acc (Point.digest (input_point t d ~address))
  done;
  Array.fold_left Cryptosim.Digest.combine !acc holding_digests

(* Probability a status bit flips on one tick. *)
let flip_probability = 0.01

(* At most [input_registers_count + discrete_inputs_count] pushes per
   tick, the length of [events]. *)
let push t slot value =
  Array.unsafe_set t.events t.event_count ((slot lsl 16) lor value);
  t.event_count <- t.event_count + 1

let tick t d =
  if d < 0 || d >= count t then invalid_arg "Device.tick: no such device";
  t.event_count <- 0;
  (* One pass over device [d]'s stream draws the whole tick, in the
     order of the single draws: a walk step per input register, then a
     flip per status bit. *)
  for address = 0 to input_registers_count - 1 do
    let k = (d * input_registers_count) + address in
    Array.unsafe_set t.walk address ((2 * param t k step) + 1)
  done;
  let flips =
    Sim.Rng.Bank.draws t.rng d t.walk flip_probability discrete_inputs_count
  in
  (* Analog process: bounded random walk with mean reversion, reported
     by exception when the drift since the last report crosses the
     point's deadband. *)
  for address = 0 to input_registers_count - 1 do
    let k = (d * input_registers_count) + address in
    let v = get16u t.input_registers k in
    let drift = Array.unsafe_get t.walk address - param t k step in
    let walked = v + drift + ((param t k nominal - v) / 16) in
    let clamped = Int.max (param t k lo) (Int.min (param t k hi) walked) in
    set16u t.input_registers k clamped;
    if abs (clamped - get16u t.last_reported k) >= param t k deadband then begin
      set16u t.last_reported k clamped;
      push t address clamped
    end
  done;
  (* Status bits: rare spontaneous flips, always exception-reported. *)
  if flips <> 0 then
    for address = 0 to discrete_inputs_count - 1 do
      if flips land (1 lsl address) <> 0 then begin
        let k = (d * discrete_inputs_count) + address in
        let bit = 1 - get16u t.discrete_inputs k in
        set16u t.discrete_inputs k bit;
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
