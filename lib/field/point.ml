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

let lo p = max 0 (p.nominal - p.spread)
let hi p = min 0xFFFF (p.nominal + p.spread)

let discrete ~table ~address =
  { table; address; nominal = 0; spread = 1; step = 1; deadband = 1 }

let analog ~table ~address ~nominal ~spread =
  let spread = max 1 spread in
  {
    table;
    address;
    nominal;
    spread;
    step = max 1 (spread / 8);
    deadband = max 1 (spread / 4);
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
