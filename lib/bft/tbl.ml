module Int = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x
end)

module Pair = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) ((c, d) : t) = a = c && b = d
  let hash ((a, b) : t) = (a * 0x9E37_79B9) + b
end)
