type table = Scada.Field_frame.table =
  | Discrete_input
  | Coil
  | Input_register
  | Holding_register

type t = {
  table : table;
  address : int;
  nominal : int;
  spread : int;
  step : int;
  deadband : int;
}

let lo_of ~nominal ~spread = max 0 (nominal - spread)
let hi_of ~nominal ~spread = min 0xFFFF (nominal + spread)
let step_of ~spread = max 1 (spread / 8)
let deadband_of ~spread = max 1 (spread / 4)
let lo p = lo_of ~nominal:p.nominal ~spread:p.spread
let hi p = hi_of ~nominal:p.nominal ~spread:p.spread

let discrete ~table ~address =
  { table; address; nominal = 0; spread = 1; step = 1; deadband = 1 }

let analog ~table ~address ~nominal ~spread =
  let spread = max 1 spread in
  {
    table;
    address;
    nominal;
    spread;
    step = step_of ~spread;
    deadband = deadband_of ~spread;
  }

let render p =
  Printf.sprintf "%s@%d:n%d,s%d,st%d,db%d"
    (Scada.Field_frame.table_name p.table)
    p.address p.nominal p.spread p.step p.deadband

(* The digest of [render p], streamed: fleet set-up digests six
   descriptors per device. *)
let digest p =
  let module D = Cryptosim.Digest in
  let a = D.start () in
  D.add_string a (Scada.Field_frame.table_name p.table);
  D.add_byte a '@';
  D.add_int a p.address;
  D.add_string a ":n";
  D.add_int a p.nominal;
  D.add_string a ",s";
  D.add_int a p.spread;
  D.add_string a ",st";
  D.add_int a p.step;
  D.add_string a ",db";
  D.add_int a p.deadband;
  D.finish a

let map_digest points =
  Array.fold_left
    (fun acc p -> Cryptosim.Digest.combine acc (digest p))
    (Cryptosim.Digest.of_string "field-map-genesis")
    points

let pp ppf p = Format.pp_print_string ppf (render p)
