type t = { n : int; f : int; k : int }

(* Replica sets ([Replica_set]) are bits 0..61 of one native int. *)
let max_n = 62

let create ~n ~f ~k =
  if f < 0 || k < 0 then invalid_arg "Quorum.create: negative f or k";
  if n < 1 then invalid_arg "Quorum.create: n < 1";
  if n > max_n then invalid_arg "Quorum.create: n > 62";
  if n < (3 * f) + (2 * k) + 1 then
    invalid_arg "Quorum.create: n < 3f + 2k + 1";
  { n; f; k }

let minimal ~f ~k = create ~n:((3 * f) + (2 * k) + 1) ~f ~k

let quorum_size t = (2 * t.f) + t.k + 1
let suspect_threshold t = t.f + t.k + 1
let reply_threshold t = t.f + 1
