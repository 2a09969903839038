type table = Discrete_input | Coil | Input_register | Holding_register

let table_to_int = function
  | Discrete_input -> 0
  | Coil -> 1
  | Input_register -> 2
  | Holding_register -> 3

let table_of_int = function
  | 0 -> Some Discrete_input
  | 1 -> Some Coil
  | 2 -> Some Input_register
  | 3 -> Some Holding_register
  | _ -> None

let table_name = function
  | Discrete_input -> "di"
  | Coil -> "co"
  | Input_register -> "ir"
  | Holding_register -> "hr"

type advert = {
  concentrator : int;
  device : int;
  discrete_inputs : int;
  coils : int;
  input_registers : int;
  holding_registers : int;
  map_digest : Cryptosim.Digest.t;
}

type event = { table : table; address : int; value : int }

type report = {
  concentrator : int;
  device : int;
  seq : int;
  events : event list;
}

let fold_event acc table ~address ~value =
  let mix acc v = ((acc * 1_000_003) + v) land 0x3FFF_FFFF in
  mix (mix (mix acc (table_to_int table)) address) value

let event_checksum acc { table; address; value } = fold_event acc table ~address ~value

let report_checksum r = List.fold_left event_checksum (r.device land 0xFFFF) r.events

let pp_advert ppf (a : advert) =
  Format.fprintf ppf "advert(c%d,d%d,di%d/co%d/ir%d/hr%d,%a)" a.concentrator
    a.device a.discrete_inputs a.coils a.input_registers a.holding_registers
    Cryptosim.Digest.pp a.map_digest

let pp_report ppf (r : report) =
  Format.fprintf ppf "report(c%d,d%d,#%d,%d events)" r.concentrator r.device
    r.seq (List.length r.events)

let equal_advert (a : advert) (b : advert) =
  a.concentrator = b.concentrator && a.device = b.device
  && a.discrete_inputs = b.discrete_inputs
  && a.coils = b.coils
  && a.input_registers = b.input_registers
  && a.holding_registers = b.holding_registers
  && Cryptosim.Digest.equal a.map_digest b.map_digest

