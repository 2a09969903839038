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

(* Byte-identical to [Printf.sprintf "%s@%d:n%d,s%d,st%d,db%d"]; fleet
   set-up renders six per device, a cost [string_of_int]'s C format
   parse would dominate. Digits come from [-abs n], safe for [min_int]. *)
let render p =
  let b = Buffer.create 40 in
  let rec digits n =
    if n <= -10 then digits (n / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))
  in
  let field sep n =
    Buffer.add_string b sep;
    if n < 0 then Buffer.add_char b '-';
    digits (-abs n)
  in
  Buffer.add_string b (Scada.Field_frame.table_name p.table);
  List.iter2 field [ "@"; ":n"; ",s"; ",st"; ",db" ]
    [ p.address; p.nominal; p.spread; p.step; p.deadband ];
  Buffer.contents b

let digest p = Cryptosim.Digest.of_string (render p)

let map_digest points =
  Array.fold_left
    (fun acc p -> Cryptosim.Digest.combine acc (digest p))
    (Cryptosim.Digest.of_string "field-map-genesis")
    points

let pp ppf p = Format.pp_print_string ppf (render p)
