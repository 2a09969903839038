type t = { mutable count : int; mutable mean : float; mutable max_v : float }

let create () = { count = 0; mean = 0.; max_v = nan }

let add t x =
  t.count <- t.count + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.count);
  if t.count = 1 || x > t.max_v then t.max_v <- x

let count t = t.count
let mean t = if t.count = 0 then nan else t.mean
let max_value t = t.max_v

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let count = a.count + b.count in
    let delta = b.mean -. a.mean in
    let mean =
      a.mean +. (delta *. float_of_int b.count /. float_of_int count)
    in
    { count; mean; max_v = Float.max a.max_v b.max_v }
  end
