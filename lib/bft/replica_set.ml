type t = int

let empty = 0

let add s r =
  if r < 0 || r >= Quorum.max_n then
    invalid_arg "Replica_set.add: replica index outside 0..61";
  s lor (1 lsl r)

let mem s r = r >= 0 && r < Quorum.max_n && s land (1 lsl r) <> 0

(* SWAR popcount over bits 0..61. The byte sums land in the top byte of
   the product; at most 62, they fit its 7 bits below the sign. *)
let cardinal s =
  let x = s - ((s lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56

let of_list rs = List.fold_left add empty rs
