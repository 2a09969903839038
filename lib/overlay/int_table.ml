(* Fibonacci hashing: the product's high bits mix every key bit, so
   dense keys (source node ids) spread evenly over a power-of-two
   bucket array. Pure OCaml — no [caml_hash] call. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k * 0x1E3779B97F4A7C15) lsr 31
end)
